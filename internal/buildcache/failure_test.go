package buildcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/fetch"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
)

// pushedMirror builds expr from source and pushes its DAG onto a mirror
// the test can tamper with (blob names are build_cache/<hash>.spack.json
// and build_cache/<hash>.sha256).
func pushedMirror(t testing.TB, expr string) (*fetch.Mirror, *buildcache.Cache, *spec.Spec) {
	t.Helper()
	b, st, c := newEnv(t, "/spack/opt")
	concrete := concretizeExpr(t, c, expr)
	if _, err := b.Build(concrete); err != nil {
		t.Fatal(err)
	}
	mirror := fetch.NewMirror()
	cache := buildcache.New(buildcache.NewMirrorBackend(mirror))
	if _, err := cache.PushDAG(st, concrete); err != nil {
		t.Fatal(err)
	}
	return mirror, cache, concrete
}

func archiveBlob(hash string) string  { return "build_cache/" + hash + ".spack.json" }
func checksumBlob(hash string) string { return "build_cache/" + hash + ".sha256" }

// sha256Hex is the checksum record's form: hex SHA-256 of archive bytes.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestPullCorruptArchiveIsChecksumFailure(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, ok := mirror.Blob(archiveBlob(hash))
	if !ok {
		t.Fatal("archive blob missing")
	}
	payload[len(payload)/2] ^= 0xff // bit-rot in the middle of the archive
	mirror.PutBlob(archiveBlob(hash), payload)

	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindChecksum {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindChecksum)
	}
	if stB.Len() != 0 {
		t.Errorf("corrupt pull left %d records in the store", stB.Len())
	}
}

func TestPullTruncatedManifest(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	truncated := payload[:len(payload)/3]
	mirror.PutBlob(archiveBlob(hash), truncated)
	// Re-record the checksum over the truncated bytes so integrity passes
	// and the parse itself has to catch the damage.
	mirror.PutBlob(checksumBlob(hash), []byte(sha256Hex(truncated)+"\n"))

	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindManifest {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindManifest)
	}
}

func TestPullTamperedRelocationTable(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	var ar buildcache.Archive
	if err := json.Unmarshal(payload, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Relocations) == 0 {
		t.Fatal("archive recorded no relocations to tamper with")
	}
	for src := range ar.Relocations[0].Occurrences {
		ar.Relocations[0].Occurrences[src] += 7
	}
	tampered, err := json.MarshalIndent(&ar, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	mirror.PutBlob(archiveBlob(hash), tampered)
	mirror.PutBlob(checksumBlob(hash), []byte(sha256Hex(tampered)+"\n"))

	_, stB, _ := newEnv(t, "/site/store")
	_, err = cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindRelocation {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindRelocation)
	}
	if stB.Len() != 0 {
		t.Errorf("failed relocation left %d records in the store", stB.Len())
	}
}

func TestPullRenameFaultLeavesStoreUnchanged(t *testing.T) {
	_, cache, concrete := pushedMirror(t, "libelf")

	// The target store's filesystem fails every rename: the first
	// archived file can be written to its temp path but never committed.
	fs := simfs.New(simfs.TempFS)
	stB, err := store.New(fs.FailAfter("rename", 0), "/site/store", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindIO {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindIO)
	}
	if stB.Len() != 0 {
		t.Fatalf("index has %d records after a failed pull, want 0", stB.Len())
	}
	// The store rolled the partial prefix back — nothing torn on disk.
	prefix := stB.Prefix(concrete)
	if exists, _ := fs.Stat(prefix); exists {
		t.Errorf("partial prefix %s survived the failed pull", prefix)
	}
	// A retry on a healthy handle succeeds from the same archive.
	stB2, err := store.New(fs, "/site/store", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Pull(stB2, concrete, true); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
}

func TestConcurrentPullsShareOneUnpack(t *testing.T) {
	_, cache, concrete := pushedMirror(t, "libelf")
	_, stB, _ := newEnv(t, "/site/store")

	const workers = 8
	results := make([]*buildcache.PullResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cache.Pull(stB, concrete, false)
		}(i)
	}
	wg.Wait()

	ran := 0
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i].Ran {
			ran++
		}
		if results[i].Record.Prefix != results[0].Record.Prefix {
			t.Errorf("worker %d got prefix %q, want %q", i, results[i].Record.Prefix, results[0].Record.Prefix)
		}
	}
	if ran != 1 {
		t.Errorf("%d workers unpacked, want exactly 1 (singleflight)", ran)
	}
	if stB.Len() != 1 {
		t.Errorf("store has %d records, want 1", stB.Len())
	}
}

func TestPullChecksumBlobMissing(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	mirror.DeleteBlob(checksumBlob(concrete.FullHash()))
	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if kind := buildcache.ErrorKind(err); kind != buildcache.KindChecksum {
		t.Fatalf("error kind = %q (%v), want %q", kind, err, buildcache.KindChecksum)
	}
	// Has() keys off the checksum blob, so the builder would not even try.
	if cache.Has(concrete.FullHash()) {
		t.Error("Has = true for an archive without a checksum")
	}
}

func TestErrorStringAndKind(t *testing.T) {
	mirror, cache, concrete := pushedMirror(t, "libelf")
	hash := concrete.FullHash()
	payload, _ := mirror.Blob(archiveBlob(hash))
	payload[0] ^= 0xff
	mirror.PutBlob(archiveBlob(hash), payload)
	_, stB, _ := newEnv(t, "/site/store")
	_, err := cache.Pull(stB, concrete, true)
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "pull") || !strings.Contains(msg, "checksum") {
		t.Errorf("error %q does not name the operation and kind", msg)
	}
	if buildcache.ErrorKind(nil) != "" {
		t.Error("ErrorKind(nil) should be empty")
	}
}

// rewriteArchive decodes the archive stored under hash as generic JSON,
// lets edit change it, and stores the re-encoded bytes with a re-recorded
// checksum, so integrity passes and only the manifest checks can catch
// the edit.
func rewriteArchive(t *testing.T, mirror *fetch.Mirror, hash string, edit func(ar map[string]any)) {
	t.Helper()
	payload, ok := mirror.Blob(archiveBlob(hash))
	if !ok {
		t.Fatal("archive blob missing")
	}
	var ar map[string]any
	if err := json.Unmarshal(payload, &ar); err != nil {
		t.Fatal(err)
	}
	edit(ar)
	data, err := json.MarshalIndent(ar, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	mirror.PutBlob(archiveBlob(hash), data)
	mirror.PutBlob(checksumBlob(hash), []byte(sha256Hex(data)+"\n"))
}

// plainBackend hides a backend's Summer refinement, so Verify takes its
// Get-and-rehash branch.
type plainBackend struct{ buildcache.Backend }

// TestCorruptionTable runs every damaged-archive case through each
// reader of the cache. Pull and Fetch share one verified open, so they
// agree on every case; Verify checks integrity and trust only (it never
// decodes the manifest), and reports an absent checksum record as a miss.
func TestCorruptionTable(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, m *fetch.Mirror, elf, dwarf string)
		policy buildcache.TrustPolicy
		pull   buildcache.Kind
		fetch  buildcache.Kind
		verify buildcache.Kind
	}{
		{
			name: "corrupt payload",
			tamper: func(t *testing.T, m *fetch.Mirror, elf, _ string) {
				payload, _ := m.Blob(archiveBlob(elf))
				payload[len(payload)/2] ^= 0xff
				m.PutBlob(archiveBlob(elf), payload)
			},
			pull: buildcache.KindChecksum, fetch: buildcache.KindChecksum, verify: buildcache.KindChecksum,
		},
		{
			name: "truncated manifest",
			tamper: func(t *testing.T, m *fetch.Mirror, elf, _ string) {
				payload, _ := m.Blob(archiveBlob(elf))
				truncated := payload[:len(payload)/3]
				m.PutBlob(archiveBlob(elf), truncated)
				m.PutBlob(checksumBlob(elf), []byte(sha256Hex(truncated)+"\n"))
			},
			pull: buildcache.KindManifest, fetch: buildcache.KindManifest, verify: "",
		},
		{
			name: "missing checksum record",
			tamper: func(t *testing.T, m *fetch.Mirror, elf, _ string) {
				m.DeleteBlob(checksumBlob(elf))
			},
			pull: buildcache.KindChecksum, fetch: buildcache.KindChecksum, verify: buildcache.KindMissing,
		},
		{
			name: "full_hash of another archive",
			tamper: func(t *testing.T, m *fetch.Mirror, elf, dwarf string) {
				other, _ := m.Blob(archiveBlob(dwarf))
				m.PutBlob(archiveBlob(elf), other)
				m.PutBlob(checksumBlob(elf), []byte(sha256Hex(other)+"\n"))
			},
			pull: buildcache.KindManifest, fetch: buildcache.KindManifest, verify: "",
		},
		{
			name: "unsupported format",
			tamper: func(t *testing.T, m *fetch.Mirror, elf, _ string) {
				rewriteArchive(t, m, elf, func(ar map[string]any) { ar["format"] = 99 })
			},
			pull: buildcache.KindManifest, fetch: buildcache.KindManifest, verify: "",
		},
		{
			name:   "unsigned under enforce",
			tamper: func(*testing.T, *fetch.Mirror, string, string) {},
			policy: buildcache.TrustEnforce,
			pull:   buildcache.KindSignature, fetch: buildcache.KindSignature, verify: buildcache.KindSignature,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mirror, _, dwarf := pushedMirror(t, "libdwarf")
			elfNode := dwarf.Dep("libelf")
			elf := elfNode.FullHash()
			tc.tamper(t, mirror, elf, dwarf.FullHash())
			be := buildcache.NewMirrorBackend(mirror)
			cache := buildcache.New(be)
			cache.Policy = tc.policy
			plain := buildcache.New(plainBackend{be})
			plain.Policy = tc.policy

			_, stB, _ := newEnv(t, "/site/store")
			_, err := cache.Pull(stB, elfNode, true)
			if kind := buildcache.ErrorKind(err); kind != tc.pull || err == nil {
				t.Errorf("Pull: kind %q (%v), want %q", kind, err, tc.pull)
			}
			if stB.Len() != 0 {
				t.Errorf("failed pull left %d records", stB.Len())
			}
			if _, _, err := cache.Fetch(elf); buildcache.ErrorKind(err) != tc.fetch || err == nil {
				t.Errorf("Fetch: kind %q (%v), want %q", buildcache.ErrorKind(err), err, tc.fetch)
			}
			for name, c := range map[string]*buildcache.Cache{"Verify": cache, "Verify without Summer": plain} {
				err := c.Verify(elf)
				if kind := buildcache.ErrorKind(err); kind != tc.verify || (err == nil) != (tc.verify == "") {
					t.Errorf("%s: kind %q (%v), want %q", name, kind, err, tc.verify)
				}
			}
		})
	}
}

// TestPullRejectsEscapingPaths: an archive whose manifest names a path
// outside its prefix is refused before a byte is written — for a regular
// file and for a symlink entry — and nothing lands outside the target
// store.
func TestPullRejectsEscapingPaths(t *testing.T) {
	escape := "../../../../../../escaped-by-archive"
	cases := map[string]map[string]any{
		"regular file":  {"path": escape, "data": []byte("payload")},
		"symlink entry": {"path": escape, "symlink": "/etc/passwd"},
		"absolute path": {"path": "/escaped-by-archive", "data": []byte("payload")},
		"unclean path":  {"path": "lib/../../escaped-by-archive", "data": []byte("payload")},
		"empty path":    {"path": "", "data": []byte("payload")},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			mirror, cache, concrete := pushedMirror(t, "libelf")
			hash := concrete.FullHash()
			rewriteArchive(t, mirror, hash, func(ar map[string]any) {
				ar["files"].([]any)[0] = bad
			})

			fs := simfs.New(simfs.TempFS)
			stB, err := store.New(fs, "/site/store", store.SpackLayout{})
			if err != nil {
				t.Fatal(err)
			}
			before := treePaths(t, fs)
			_, err = cache.Pull(stB, concrete, true)
			if kind := buildcache.ErrorKind(err); kind != buildcache.KindManifest {
				t.Errorf("Pull: kind %q (%v), want %q", kind, err, buildcache.KindManifest)
			}
			if _, _, err := cache.Fetch(hash); buildcache.ErrorKind(err) != buildcache.KindManifest {
				t.Errorf("Fetch: %v, want a manifest error", err)
			}
			for p := range treePaths(t, fs) {
				if !before[p] && !strings.HasPrefix(p, stB.Root+"/") {
					t.Errorf("pull wrote %s outside the target store", p)
				}
			}
			if exists, _ := fs.Stat("/escaped-by-archive"); exists {
				t.Error("/escaped-by-archive was written")
			}
			if stB.Len() != 0 {
				t.Errorf("rejected pull left %d records", stB.Len())
			}
		})
	}
}

// treePaths lists every file and symlink on fs.
func treePaths(t testing.TB, fs *simfs.FS) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	if err := fs.Walk("/", func(p string, _ bool) error {
		out[p] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
