package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/build"
	"repro/internal/lifecycle"
	"repro/internal/spec"
	"repro/internal/store"
)

// The rollout's output checks. Each reads a whole store in one walk:
// simfs walks cost a scan of every file, so walking per prefix would cost
// more than the operations being checked.

// prefixTree is one install prefix's files: relative path → content, or
// "-> target" for a symlink.
type prefixTree map[string]string

// readPrefixes reads the files of every listed prefix in one walk of the
// store.
func readPrefixes(st *store.Store, prefixes map[string]bool) (map[string]prefixTree, error) {
	out := make(map[string]prefixTree, len(prefixes))
	err := st.FS.Walk(st.Root, func(path string, isSymlink bool) error {
		owner := ""
		for dir := path; owner == ""; {
			i := strings.LastIndexByte(dir, '/')
			if i <= 0 {
				return nil // outside every listed prefix
			}
			if dir = dir[:i]; prefixes[dir] {
				owner = dir
			}
		}
		tree := out[owner]
		if tree == nil {
			tree = prefixTree{}
			out[owner] = tree
		}
		rel := path[len(owner):]
		if isSymlink {
			target, err := st.FS.Readlink(path)
			tree[rel] = "-> " + target
			return err
		}
		data, err := st.FS.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	return out, err
}

// digest is a SHA-256 over a tree's paths and contents.
func (t prefixTree) digest() string {
	paths := make([]string, 0, len(t))
	for p := range t {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%d\x00%s", p, len(t[p]), t[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytes is the tree's payload size as simfs counts it.
func (t prefixTree) bytes() int64 {
	var n int64
	for _, data := range t {
		n += int64(len(strings.TrimPrefix(data, "-> ")))
	}
	return n
}

// checkBinaryInstall checks one consumer install: the root hash is the
// farm's, no node fell back to a source build, and every node came from
// the binary cache.
func checkBinaryInstall(consumer *store.Store, res *build.Result, wantHash string) error {
	if h := res.Root.FullHash(); h != wantHash {
		return fmt.Errorf("root hash %s, the farm built %s", h, wantHash)
	}
	if res.CacheFallbacks != 0 {
		return fmt.Errorf("%d nodes fell back to source builds", res.CacheFallbacks)
	}
	for _, n := range res.Root.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := consumer.Lookup(n)
		if !ok {
			return fmt.Errorf("%s is not installed", n.Name)
		}
		if o := store.RecordOrigin(rec); o != store.OriginBinary {
			return fmt.Errorf("%s has origin %s, want %s", n.Name, o, store.OriginBinary)
		}
	}
	return nil
}

// comparePulledTrees is the push→pull oracle: every prefix the consumer
// pulled must equal the farm's byte for byte once each farm path of the
// DAG is rewritten to the consumer's. The consumer's layout puts every
// prefix elsewhere (relocatedLayout), so every pulled file that names a
// store path was relocated. It returns the first mismatch in each
// config's DAG, by config.
func comparePulledTrees(farm, consumer *store.Store, roots map[string]*spec.Spec) (map[string]error, error) {
	type pair struct{ from, to string }
	nodes := map[string]pair{} // full hash → prefixes
	var rewrites []string
	farmPrefixes, consumerPrefixes := map[string]bool{}, map[string]bool{}
	for _, root := range roots {
		for _, n := range root.TopoOrder() {
			h := n.FullHash()
			if n.External || nodes[h] != (pair{}) {
				continue
			}
			from, ok1 := farm.Lookup(n)
			to, ok2 := consumer.Lookup(n)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s is not installed on both sites", n.Name)
			}
			nodes[h] = pair{from.Prefix, to.Prefix}
			farmPrefixes[from.Prefix], consumerPrefixes[to.Prefix] = true, true
			if from.Prefix != to.Prefix {
				rewrites = append(rewrites, from.Prefix, to.Prefix)
			}
		}
	}
	if farm.Root != consumer.Root {
		rewrites = append(rewrites, farm.Root, consumer.Root)
	}
	rewrite := longestFirst(rewrites)
	want, err := readPrefixes(farm, farmPrefixes)
	if err != nil {
		return nil, err
	}
	got, err := readPrefixes(consumer, consumerPrefixes)
	if err != nil {
		return nil, err
	}
	bad := map[string]error{} // full hash → mismatch
	for h, p := range nodes {
		w, g := want[p.from], got[p.to]
		if len(w) == 0 || len(w) != len(g) {
			bad[h] = fmt.Errorf("%s: %d files pulled, the farm has %d", p.to, len(g), len(w))
			continue
		}
		for rel, data := range w {
			if g[rel] != rewrite.Replace(data) {
				bad[h] = fmt.Errorf("%s: %s differs from the farm's after relocation", p.to, rel)
				break
			}
		}
	}
	out := map[string]error{}
	for expr, root := range roots {
		for _, n := range root.TopoOrder() {
			if err := bad[n.FullHash()]; err != nil {
				out[expr] = err
				break
			}
		}
	}
	return out, nil
}

// longestFirst builds a replacer over old/new pairs that prefers the
// longest old string, so a prefix never shadows a longer one.
func longestFirst(pairs []string) *strings.Replacer {
	idx := make([]int, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return len(pairs[idx[a]]) > len(pairs[idx[b]]) })
	args := make([]string, 0, len(pairs))
	for _, i := range idx {
		args = append(args, pairs[i], pairs[i+1])
	}
	return strings.NewReplacer(args...)
}

// liveDigests snapshots every non-external record outside dead, by
// prefix, and sizes the whole store and the dead records' prefixes.
func liveDigests(st *store.Store, dead map[string]bool) (live map[string]string, total, deadBytes int64, err error) {
	prefixes := map[string]bool{}
	for _, r := range st.All() {
		if !r.Spec.External {
			prefixes[r.Prefix] = true
		}
	}
	trees, err := readPrefixes(st, prefixes)
	if err != nil {
		return nil, 0, 0, err
	}
	live = map[string]string{}
	for _, r := range st.All() {
		if r.Spec.External {
			continue
		}
		t := trees[r.Prefix]
		total += t.bytes()
		if dead[r.Spec.FullHash()] {
			deadBytes += t.bytes()
		} else {
			live[r.Prefix] = t.digest()
		}
	}
	return live, total, deadBytes, nil
}

// checkSweep verifies a GC run against the plan taken just before it:
// exactly the dead bytes the benchmark read from the planned dead
// prefixes reclaimed, no dead prefix left, and every live prefix
// byte-identical.
func checkSweep(st *store.Store, plan *lifecycle.Plan, res *lifecycle.Result, live map[string]string, deadBytes int64) error {
	if res.Reclaimed != deadBytes {
		return fmt.Errorf("reclaimed %d bytes, the planned dead prefixes hold %d", res.Reclaimed, deadBytes)
	}
	prefixes := map[string]bool{}
	for p := range live {
		prefixes[p] = true
	}
	for _, d := range plan.Dead {
		prefixes[d.Prefix] = true
	}
	trees, err := readPrefixes(st, prefixes)
	if err != nil {
		return err
	}
	for _, d := range plan.Dead {
		if exists, _ := st.FS.Stat(d.Prefix); exists || len(trees[d.Prefix]) > 0 {
			return fmt.Errorf("dead prefix %s survived", d.Prefix)
		}
	}
	for prefix, want := range live {
		if trees[prefix].digest() != want {
			return fmt.Errorf("live prefix %s changed", prefix)
		}
	}
	return nil
}
