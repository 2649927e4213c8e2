package buildcache_test

import (
	"encoding/json"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/fetch"
)

// TestCacheReuseSource: every archived node is a reuse candidate carrying
// its full concrete DAG, keyed by the archive's full hash, and the
// fingerprint follows pushes.
func TestCacheReuseSource(t *testing.T) {
	empty := buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
	fpEmpty := empty.ReuseFingerprint()
	if cands, err := empty.ReuseCandidates(); err != nil || len(cands) != 0 {
		t.Fatalf("empty cache candidates = %v, %v", cands, err)
	}

	cache, concrete, _ := buildAndPush(t, "libdwarf")
	if cache.ReuseFingerprint() == fpEmpty {
		t.Error("fingerprint unchanged after pushes")
	}
	cands, err := cache.ReuseCandidates()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range concrete.TopoOrder() {
		if n.External {
			continue
		}
		got, ok := cands[n.FullHash()]
		if !ok {
			t.Errorf("archived %s (%s) missing from candidates", n.Name, n.FullHash())
			continue
		}
		// The embedded spec round-trips to the same identity.
		if got.FullHash() != n.FullHash() {
			t.Errorf("candidate %s decodes to hash %s", n.FullHash(), got.FullHash())
		}
	}
}

// TestReuseSkipsMismatchedSpecJSON: a metadata document whose spec_json
// was swapped for another DAG's must not become a reuse pin under a hash
// that DAG does not have.
func TestReuseSkipsMismatchedSpecJSON(t *testing.T) {
	mirror, cache, dwarf := pushedMirror(t, "libdwarf")
	elf := dwarf.Dep("libelf").FullHash()
	metaBlob := func(hash string) string { return "build_cache/" + hash + ".meta" }
	var elfMeta, dwarfMeta map[string]any
	for hash, into := range map[string]*map[string]any{elf: &elfMeta, dwarf.FullHash(): &dwarfMeta} {
		data, ok := mirror.Blob(metaBlob(hash))
		if !ok {
			t.Fatalf("no metadata for %s", hash)
		}
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatal(err)
		}
	}
	elfMeta["spec_json"] = dwarfMeta["spec_json"]
	data, err := json.Marshal(elfMeta)
	if err != nil {
		t.Fatal(err)
	}
	mirror.PutBlob(metaBlob(elf), data)

	cands, err := cache.ReuseCandidates()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := cands[elf]; ok {
		t.Errorf("candidate %s decodes to %s (hash %s)", elf, got.Name, got.FullHash())
	}
	if _, ok := cands[dwarf.FullHash()]; !ok {
		t.Error("untampered libdwarf candidate missing")
	}
	for hash, s := range cands {
		if s.FullHash() != hash {
			t.Errorf("candidate %s hashes to %s", hash, s.FullHash())
		}
	}
}
