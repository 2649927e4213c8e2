package store

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simfs"
	"repro/internal/spec"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "zlib")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle on the same tree (a "new process") sees the state.
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("loaded %d records", st2.Len())
	}
	if !st2.IsInstalled(a) || !st2.IsInstalled(b) {
		t.Error("records lost in round trip")
	}
	recA, _ := st2.Lookup(a)
	if !recA.Explicit {
		t.Error("explicit flag lost")
	}
	recB, _ := st2.Lookup(b)
	if recB.Explicit {
		t.Error("implicit flag corrupted")
	}
	if recA.Prefix != st.Prefix(a) {
		t.Errorf("prefix mismatch: %q", recA.Prefix)
	}
}

func TestSaveLoadExternal(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "zlib").Clone()
	s.External = true
	s.Path = "/usr"
	if _, _, err := st.Install(s, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	recs := st2.All()
	if len(recs) != 1 || !recs[0].Spec.External || recs[0].Prefix != "/usr" {
		t.Errorf("external record = %+v", recs[0])
	}
}

func TestOpenWithoutDatabase(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := Open(fs, "/fresh", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Error("fresh store should be empty")
	}
}

// TestLoadCorruptDatabase: every way the on-disk layout can be damaged
// makes Load and Open fail with an error naming the damaged file — never
// a panic, and never a silently empty store.
func TestLoadCorruptDatabase(t *testing.T) {
	a := mustConcrete(t, "libelf@0.8.13")
	manifestPath := "/spack/opt/.spack-db/" + manifestFile
	shardA := shardPath("/spack/opt/.spack-db", string(a.FullHash()[0]))
	for _, tc := range []struct {
		name, file string
		damage     func(fs *simfs.FS) error
	}{
		{"garbage manifest", manifestPath, func(fs *simfs.FS) error {
			return fs.WriteFile(manifestPath, []byte("{not json"))
		}},
		{"unsupported manifest version", manifestPath, func(fs *simfs.FS) error {
			return fs.WriteFile(manifestPath, []byte(`{"version": 99, "shards": []}`))
		}},
		{"manifest names a missing shard", shardA, func(fs *simfs.FS) error {
			return fs.Remove(shardA)
		}},
		{"shard with invalid JSON", shardA, func(fs *simfs.FS) error {
			return fs.WriteFile(shardA, []byte(`[{"spec": "libelf"`))
		}},
		{"shard spec_json does not decode", shardA, func(fs *simfs.FS) error {
			return fs.WriteFile(shardA, []byte(`[{"spec": "libelf", "spec_json": {"root": ""}, "prefix": "/x"}]`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStore(t)
			for _, s := range []*spec.Spec{a, mustConcrete(t, "zlib")} {
				if _, _, err := st.Install(s, true, noopBuilder); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Save(); err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(st.FS); err != nil {
				t.Fatal(err)
			}

			fresh, err := New(st.FS, "/spack/opt", SpackLayout{})
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Load()
			if err == nil || errors.Is(err, ErrNoDatabase) || !strings.Contains(err.Error(), tc.file) {
				t.Errorf("Load error = %v, want one naming %s", err, tc.file)
			}
			opened, err := Open(st.FS, "/spack/opt", SpackLayout{})
			if err == nil || !strings.Contains(err.Error(), tc.file) {
				t.Errorf("Open error = %v, want one naming %s", err, tc.file)
			}
			if opened != nil {
				t.Errorf("Open returned a store with %d records alongside its error", opened.Len())
			}
		})
	}
}

// TestSaveCrashSafety: a write failure mid-Save must never corrupt the
// on-disk database — the temp-file-plus-rename protocol leaves the
// previous state loadable.
func TestSaveCrashSafety(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Index
	}{
		{"sharded", func() Index { return NewShardedIndex() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := simfs.New(simfs.TempFS)
			st, err := New(fs, "/spack/opt", SpackLayout{}, WithIndex(tc.mk()))
			if err != nil {
				t.Fatal(err)
			}
			a := mustConcrete(t, "libelf@0.8.13")
			if _, _, err := st.Install(a, true, noopBuilder); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(); err != nil {
				t.Fatal(err)
			}

			// Every write now fails: the incremental Save must error out
			// without touching the final files.
			b := mustConcrete(t, "zlib")
			if _, _, err := st.Install(b, false, noopBuilder); err != nil {
				t.Fatal(err)
			}
			healthy := st.FS
			st.FS = healthy.FailAfter("write", 0)
			if err := st.Save(); err == nil {
				t.Fatal("Save with failing writes should error")
			}
			st.FS = healthy

			// A fresh handle still loads the pre-failure state cleanly.
			st2, err := Open(fs, "/spack/opt", SpackLayout{}, WithIndex(tc.mk()))
			if err != nil {
				t.Fatalf("database corrupted by failed save: %v", err)
			}
			if !st2.IsInstalled(a) {
				t.Error("pre-failure record lost")
			}

			// And once writes heal, Save persists the new record too.
			if err := st.Save(); err != nil {
				t.Fatal(err)
			}
			st3, err := Open(fs, "/spack/opt", SpackLayout{}, WithIndex(tc.mk()))
			if err != nil {
				t.Fatal(err)
			}
			if !st3.IsInstalled(a) || !st3.IsInstalled(b) {
				t.Error("post-recovery save incomplete")
			}
		})
	}
}

// TestRenameFailureKeepsOldIndex: the rename itself failing also leaves
// the previous database intact (the temp file is cleaned up best-effort).
func TestRenameFailureKeepsOldIndex(t *testing.T) {
	fs := simfs.New(simfs.TempFS)
	st, err := New(fs, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustConcrete(t, "libelf@0.8.13")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	b := mustConcrete(t, "zlib")
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}
	healthy := st.FS
	st.FS = healthy.FailAfter("rename", 0)
	if err := st.Save(); err == nil {
		t.Fatal("Save with failing renames should error")
	}
	st.FS = healthy
	st2, err := Open(fs, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatalf("database corrupted by failed rename: %v", err)
	}
	if !st2.IsInstalled(a) {
		t.Error("pre-failure record lost")
	}
}

func TestReindexFromProvenance(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "libelf@0.8.13")
	b := mustConcrete(t, "libelf@0.8.12")
	if _, _, err := st.Install(a, true, noopBuilder); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Install(b, false, noopBuilder); err != nil {
		t.Fatal(err)
	}

	// Lose the in-memory index; rebuild from .spack/spec provenance files.
	st2, err := New(st.FS, "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := st2.Reindex()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || st2.Len() != 2 {
		t.Fatalf("reindexed %d records (len %d)", n, st2.Len())
	}
	if !st2.IsInstalled(a) || !st2.IsInstalled(b) {
		t.Error("reindex missed records")
	}
}
