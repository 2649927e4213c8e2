package simfs

import (
	"bytes"
	"fmt"
	"path"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// refFS is the reference model for the child index: one flat map of files
// and one of directories, with every subtree operation answered by a
// prefix scan over the whole tree. It charges the same meter costs as FS.
type refFS struct {
	lat   Latency
	files map[string]*node
	dirs  map[string]bool
	cost  time.Duration
}

func newRef(lat Latency) *refFS {
	return &refFS{lat: lat, files: map[string]*node{}, dirs: map[string]bool{"/": true}}
}

// within reports whether q is p or lies beneath it.
func within(q, p string) bool {
	return q == p || p == "/" || strings.HasPrefix(q, p+"/")
}

func (r *refFS) mkdirAll(p string) error {
	var parts []string
	for cur := p; cur != "/"; cur = path.Dir(cur) {
		parts = append(parts, cur)
	}
	created := 0
	for i := len(parts) - 1; i >= 0; i-- {
		if r.dirs[parts[i]] {
			continue
		}
		if _, ok := r.files[parts[i]]; ok {
			return fmt.Errorf("is a file")
		}
		r.dirs[parts[i]] = true
		created++
	}
	r.cost += r.lat.Mkdir*time.Duration(created) + r.lat.Stat
	return nil
}

func (r *refFS) writeFile(p string, data []byte) error {
	if !r.dirs[path.Dir(p)] || r.dirs[p] {
		return fmt.Errorf("create")
	}
	_, existed := r.files[p]
	r.files[p] = &node{data: append([]byte(nil), data...)}
	r.cost += r.lat.Write + r.lat.PerKBWrite*time.Duration(len(data)/1024+1)
	if !existed {
		r.cost += r.lat.Create
	}
	return nil
}

func (r *refFS) symlink(target, p string) error {
	if _, ok := r.files[p]; ok || !r.dirs[path.Dir(p)] || r.dirs[p] {
		return fmt.Errorf("symlink")
	}
	r.files[p] = &node{symlink: target}
	r.cost += r.lat.Symlink
	return nil
}

func (r *refFS) rename(oldp, newp string) error {
	n, ok := r.files[oldp]
	if !ok || r.dirs[newp] || !r.dirs[path.Dir(newp)] {
		return fmt.Errorf("rename")
	}
	delete(r.files, oldp)
	r.files[newp] = n
	r.cost += r.lat.Create
	return nil
}

func (r *refFS) remove(p string) error {
	if _, ok := r.files[p]; !ok {
		return fmt.Errorf("remove")
	}
	delete(r.files, p)
	r.cost += r.lat.Remove
	return nil
}

func (r *refFS) removeAll(p string) error {
	removed := 0
	for f := range r.files {
		if within(f, p) {
			delete(r.files, f)
			removed++
		}
	}
	for d := range r.dirs {
		if d != "/" && within(d, p) {
			delete(r.dirs, d)
			removed++
		}
	}
	r.cost += r.lat.Remove * time.Duration(removed+1)
	return nil
}

func (r *refFS) walk(root string) []string {
	var paths, out []string
	for f := range r.files {
		if within(f, root) {
			paths = append(paths, f)
		}
	}
	sort.Strings(paths)
	for _, f := range paths {
		out = append(out, fmt.Sprintf("%s:%t", f, r.files[f].symlink != ""))
	}
	return out
}

func (r *refFS) list(dir string) ([]string, bool) {
	if !r.dirs[dir] {
		return nil, false
	}
	seen := map[string]bool{}
	add := func(p string) {
		if p != dir && within(p, dir) {
			rest := strings.TrimPrefix(strings.TrimPrefix(p, dir), "/")
			seen[strings.SplitN(rest, "/", 2)[0]] = true
		}
	}
	for f := range r.files {
		add(f)
	}
	for d := range r.dirs {
		add(d)
	}
	out := []string{}
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, true
}

func (r *refFS) treeSize(p string) int64 {
	var total int64
	for f, n := range r.files {
		if within(f, p) {
			total += int64(len(n.data) + len(n.symlink))
		}
	}
	return total
}

func (r *refFS) stat(p string) (bool, bool) {
	if r.dirs[p] {
		return true, true
	}
	_, ok := r.files[p]
	return ok, false
}

// treePaths is the fuzz alphabet. "/p/a.c" sorts before "/p/a/b" as bytes
// although a depth-first walk would visit "/p/a" first; "/" is the root.
var treePaths = []string{
	"/", "/p", "/p/a", "/p/a.c", "/p/a/b", "/p/a/b/c", "/p/ab", "/q", "/q/a", "/q/a.c",
}

// treeOp decodes one three-byte operation and applies it to both trees,
// returning a description and the two error results.
func treeOp(fs *FS, ref *refFS, op, a, b byte) (string, error, error) {
	p := treePaths[int(a)%len(treePaths)]
	q := treePaths[int(b)%len(treePaths)]
	switch op % 6 {
	case 0:
		return "MkdirAll " + p, fs.MkdirAll(p), ref.mkdirAll(p)
	case 1:
		data := bytes.Repeat([]byte{b}, int(b%7))
		return "WriteFile " + p, fs.WriteFile(p, data), ref.writeFile(p, data)
	case 2:
		return "Symlink " + q + " " + p, fs.Symlink(q, p), ref.symlink(q, p)
	case 3:
		return "Rename " + p + " " + q, fs.Rename(p, q), ref.rename(p, q)
	case 4:
		return "Remove " + p, fs.Remove(p), ref.remove(p)
	default:
		return "RemoveAll " + p, fs.RemoveAll(p), ref.removeAll(p)
	}
}

// compareTrees checks every observation the fuzz alphabet can make.
func compareTrees(t *testing.T, fs *FS, ref *refFS) {
	t.Helper()
	obs := fs.WithMeter(nil)
	if got, want := fs.Meter().Cost(), ref.cost; got != want {
		t.Fatalf("meter cost = %v, reference %v", got, want)
	}
	if got, want := fs.FileCount(), len(ref.files); got != want {
		t.Fatalf("FileCount = %d, reference %d", got, want)
	}
	for _, p := range treePaths {
		var walked []string
		obs.Walk(p, func(q string, isLink bool) error {
			walked = append(walked, fmt.Sprintf("%s:%t", q, isLink))
			return nil
		})
		if want := ref.walk(p); !reflect.DeepEqual(walked, want) {
			t.Fatalf("Walk(%s) = %v, reference %v", p, walked, want)
		}
		got, err := obs.List(p)
		want, ok := ref.list(p)
		if (err == nil) != ok || (ok && strings.Join(got, ",") != strings.Join(want, ",")) {
			t.Fatalf("List(%s) = %v, %v; reference %v, %t", p, got, err, want, ok)
		}
		if got, want := obs.TreeSize(p), ref.treeSize(p); got != want {
			t.Fatalf("TreeSize(%s) = %d, reference %d", p, got, want)
		}
		ex, dir := obs.Stat(p)
		if rex, rdir := ref.stat(p); ex != rex || dir != rdir {
			t.Fatalf("Stat(%s) = %t,%t; reference %t,%t", p, ex, dir, rex, rdir)
		}
	}
}

// FuzzTreeOps applies one decoded operation sequence to FS and to the
// prefix-scanning reference model and compares the two after every step.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 4, 0, 1, 3, 'x', 1, 5, 'y', 1, 6, 'z', 5, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		fs, ref := New(NFS), newRef(NFS)
		for i := 0; i+2 < len(data); i += 3 {
			desc, err, rerr := treeOp(fs, ref, data[i], data[i+1], data[i+2])
			if (err == nil) != (rerr == nil) {
				t.Fatalf("op %d %s: error %v, reference error %v", i/3, desc, err, rerr)
			}
			compareTrees(t, fs, ref)
		}
	})
}

func TestRemoveAllRootKeepsRoot(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", []byte("x"))
	fs.WriteFile("/top", []byte("y"))
	if err := fs.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if n := fs.FileCount(); n != 0 {
		t.Errorf("FileCount after RemoveAll(/) = %d, want 0", n)
	}
	if got, err := fs.List("/"); err != nil || len(got) != 0 {
		t.Errorf("List(/) = %v, %v; want an empty root", got, err)
	}
	if ex, dir := fs.Stat("/"); !ex || !dir {
		t.Error("root directory removed")
	}
	if ex, _ := fs.Stat("/a"); ex {
		t.Error("/a survived RemoveAll(/)")
	}
	if err := fs.WriteFile("/g", []byte("z")); err != nil {
		t.Errorf("WriteFile(/g) after RemoveAll(/): %v", err)
	}
}

func TestWalkByteOrder(t *testing.T) {
	fs := New(TempFS)
	fs.MkdirAll("/p/a")
	fs.WriteFile("/p/a/b", nil)
	fs.WriteFile("/p/a.c", nil)
	fs.WriteFile("/p/ab", nil)
	var got []string
	fs.Walk("/p", func(p string, _ bool) error {
		got = append(got, p)
		return nil
	})
	if want := "/p/a.c,/p/a/b,/p/ab"; strings.Join(got, ",") != want {
		t.Errorf("Walk order = %v, want %s", got, want)
	}
}

// TestConcurrentDisjointSubtrees runs writers, renamers and RemoveAll in
// disjoint prefixes while readers Walk and List the whole tree; run it
// with -race. Each writer's prefix must end in its known final state.
func TestConcurrentDisjointSubtrees(t *testing.T) {
	fs := New(TempFS)
	const writers, rounds = 4, 99
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fs.Walk("/", func(string, bool) error { return nil })
				fs.List("/")
				for w := 0; w < writers; w++ {
					fs.List(fmt.Sprintf("/w%d", w))
					fs.TreeSize(fmt.Sprintf("/w%d", w))
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := fmt.Sprintf("/w%d", w)
			for i := 0; i < rounds; i++ {
				dir := fmt.Sprintf("%s/r%d", root, i%3)
				if err := fs.MkdirAll(dir + "/sub"); err != nil {
					t.Error(err)
					return
				}
				fs.WriteFile(dir+"/sub/f.rtmp", []byte("data"))
				if err := fs.Rename(dir+"/sub/f.rtmp", dir+"/sub/f"); err != nil {
					t.Error(err)
					return
				}
				fs.Symlink(dir+"/sub/f", dir+"/link")
				if i%3 == 2 {
					fs.RemoveAll(root + "/r0")
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for w := 0; w < writers; w++ {
		got, err := fs.List(fmt.Sprintf("/w%d", w))
		if err != nil || strings.Join(got, ",") != "r1,r2" {
			t.Errorf("List(/w%d) = %v, %v; want [r1 r2]", w, got, err)
		}
	}
	if n := fs.FileCount(); n != writers*2*2 {
		t.Errorf("FileCount = %d, want %d", n, writers*2*2)
	}
}
