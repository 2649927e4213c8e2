package concretize

import (
	"testing"

	"repro/internal/spec"
)

// TestConcretizeResultFrozen: a solve hands back a frozen DAG whose
// memoized hashes match an unfrozen recomputation.
func TestConcretizeResultFrozen(t *testing.T) {
	s := mustConcretize(t, testEnv(), "mpileaks ^mvapich2")
	ref := s.Clone()
	for _, n := range s.Nodes() {
		if !n.Frozen() {
			t.Fatalf("node %s of a concretized DAG is not frozen", n.Name)
		}
		if got, want := n.FullHash(), ref.Dep(n.Name).FullHash(); got != want {
			t.Errorf("%s: frozen hash %s, unfrozen %s", n.Name, got, want)
		}
	}
}

// TestCacheHitFrozenCarriesHashes: a memo hit is a private frozen copy
// that already knows every node's hash, so serving it hashes nothing.
func TestCacheHitFrozenCarriesHashes(t *testing.T) {
	c, _ := cachedEnv(DefaultCacheSize)
	first := mustConcretize(t, c, "mpileaks")
	want := make(map[string]string)
	for _, n := range first.Clone().Nodes() {
		want[n.Name] = n.FullHash()
	}
	// One hit per hashing pass: AllocsPerRun calls once more than runs,
	// and a pass that had to hash would memoize for the next.
	hits := make([][]*spec.Spec, 3)
	for i := range hits {
		hit := mustConcretize(t, c, "mpileaks")
		if hit == first {
			t.Fatal("cache hit shares the inserted DAG")
		}
		hits[i] = hit.Nodes()
		for _, n := range hits[i] {
			if !n.Frozen() {
				t.Fatalf("hit node %s is not frozen", n.Name)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(hits)-1, func() {
		for _, n := range hits[i] {
			n.FullHash()
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("hashing a fresh hit allocated %.0f times, want 0", allocs)
	}
	for _, nodes := range hits {
		for _, n := range nodes {
			if n.FullHash() != want[n.Name] {
				t.Errorf("%s hashes %s, want %s", n.Name, n.FullHash(), want[n.Name])
			}
		}
	}
	if got := c.Stats.CacheHits(); got != len(hits) {
		t.Errorf("CacheHits = %d, want %d", got, len(hits))
	}
}
