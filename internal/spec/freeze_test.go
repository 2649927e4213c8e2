package spec_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// aresDAG concretizes the 47-package ARES stack; the result is frozen.
func aresDAG(tb testing.TB, expr string) *spec.Spec {
	tb.Helper()
	c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
	s, err := c.Concretize(syntax.MustParse(expr))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// nodeHashes maps every node of a DAG to its full hash.
func nodeHashes(s *spec.Spec) map[string]string {
	out := make(map[string]string)
	for _, n := range s.Nodes() {
		out[n.Name] = n.FullHash()
	}
	return out
}

// depNames renders a node's direct dependencies as one string.
func depNames(n *spec.Spec) string {
	var names []string
	for _, d := range n.DirectDeps() {
		names = append(names, d.Name)
	}
	return strings.Join(names, ",")
}

func sameHashes(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", what, len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: %s hashes %s, want %s", what, name, got[name], h)
		}
	}
}

func TestFrozenMutatorsPanic(t *testing.T) {
	s := aresDAG(t, ares.Current.Spec())
	deep := s.Dep("zlib")
	if deep == nil {
		t.Fatal("ARES DAG has no zlib")
	}
	want := s.FullHash()
	mutators := map[string]func(n *spec.Spec){
		"AddDep":           func(n *spec.Spec) { _ = n.AddDep(spec.New("extra")) },
		"AddDepTyped":      func(n *spec.Spec) { _ = n.AddDepTyped(spec.New("extra"), spec.DepBuild) },
		"SetVariant":       func(n *spec.Spec) { n.SetVariant("debug", true) },
		"SetDepType":       func(n *spec.Spec) { n.SetDepType("extra", spec.DepRun) },
		"EnsureMaps":       func(n *spec.Spec) { n.EnsureMaps() },
		"Constrain":        func(n *spec.Spec) { _ = n.Constrain(spec.New(n.Name)) },
		"ConstrainChanged": func(n *spec.Spec) { _, _ = n.ConstrainChanged(spec.New(n.Name)) },
	}
	for name, mutate := range mutators {
		for _, n := range []*spec.Spec{s, deep} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on frozen %s did not panic", name, n.Name)
					}
				}()
				mutate(n)
			}()
		}
	}
	if got := s.Clone().FullHash(); got != want {
		t.Errorf("a refused mutation changed the DAG: hash %s, want %s", got, want)
	}
}

func TestFrozenCloneIsUnfrozen(t *testing.T) {
	s := aresDAG(t, ares.Current.Spec())
	want := nodeHashes(s) // memoized on s from here on
	c := s.Clone()
	for _, n := range c.Nodes() {
		if n.Frozen() {
			t.Fatalf("clone node %s is frozen", n.Name)
		}
	}
	sameHashes(t, "clone", nodeHashes(c), want)

	// The clone is a mutator's copy: changing it works and leaves the
	// frozen original and its memoized hashes alone.
	c.Dep("zlib").SetVariant("shared", false)
	if c.FullHash() == want[s.Name] {
		t.Error("mutated clone still hashes like the original")
	}
	sameHashes(t, "original after clone mutation", nodeHashes(s), want)
	sameHashes(t, "fresh clone of original", nodeHashes(s.Clone()), want)
}

func TestFreezeSpliceHashesMatchRoundTrip(t *testing.T) {
	old := aresDAG(t, "ares@15.07 ^zlib@1.2.7")
	before := nodeHashes(old) // fill old's memo: none of it may leak into the splice
	repl := aresDAG(t, "zlib@1.2.8")
	spliced, err := spec.SpliceDep(old, "zlib", repl)
	if err != nil {
		t.Fatal(err)
	}
	if !spliced.Frozen() {
		t.Fatal("SpliceDep result is not frozen")
	}
	got := nodeHashes(spliced)

	data, err := syntax.EncodeJSON(spliced)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := syntax.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Frozen() {
		t.Fatal("decoded concrete DAG is not frozen")
	}
	sameHashes(t, "splice vs round trip", got, nodeHashes(decoded))
	sameHashes(t, "splice vs unfrozen clone", got, nodeHashes(spliced.Clone()))

	cone := spec.SpliceCone(old, "zlib")
	if len(cone) == 0 {
		t.Fatal("empty splice cone")
	}
	for _, name := range cone {
		if got[name] == before[name] {
			t.Errorf("cone node %s kept its pre-splice hash", name)
		}
	}
}

func TestFrozenConcurrentReads(t *testing.T) {
	s := aresDAG(t, ares.Current.Spec())
	// Expected values from an unfrozen copy, which never memoizes.
	ref := s.Clone()
	wantHash := make(map[string]string)
	wantDeps := make(map[string]string)
	for _, n := range ref.Nodes() {
		wantHash[n.Name] = n.FullHash()
		wantDeps[n.Name] = depNames(n)
	}
	// A freshly decoded DAG: frozen, nothing memoized yet, so the
	// goroutines race to fill every memo for the first time.
	data, err := syntax.EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := syntax.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*spec.Spec
	for name := range wantHash {
		nodes = append(nodes, shared.Dep(name))
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range nodes {
				n := nodes[(i+w*7)%len(nodes)] // start each worker elsewhere
				if w%2 == 0 {
					if got := depNames(n); got != wantDeps[n.Name] {
						errs <- fmt.Errorf("%s deps %q, want %q", n.Name, got, wantDeps[n.Name])
						return
					}
				}
				if got := n.FullHash(); got != wantHash[n.Name] {
					errs <- fmt.Errorf("%s hash %s, want %s", n.Name, got, wantHash[n.Name])
					return
				}
				if got := depNames(n); got != wantDeps[n.Name] {
					errs <- fmt.Errorf("%s deps %q, want %q", n.Name, got, wantDeps[n.Name])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFreezeAllocatesNothing(t *testing.T) {
	s := aresDAG(t, ares.Current.Spec())
	clones := make([]*spec.Spec, 11) // AllocsPerRun calls once more than runs
	for i := range clones {
		clones[i] = s.Clone()
	}
	i := 0
	allocs := testing.AllocsPerRun(len(clones)-1, func() {
		clones[i].Freeze()
		i++
	})
	if allocs != 0 {
		t.Errorf("Freeze of a %d-node DAG allocated %.0f times, want 0", s.Size(), allocs)
	}
	for _, n := range clones[0].Nodes() {
		if !n.Frozen() {
			t.Fatalf("node %s not frozen", n.Name)
		}
	}
}

func TestCloneFrozenCarriesHashes(t *testing.T) {
	s := aresDAG(t, ares.Current.Spec())
	want := nodeHashes(s.Clone())
	// Fresh copies, one per hashing pass: AllocsPerRun calls once more
	// than runs, and a pass that had to hash would memoize for the next.
	copies := make([][]*spec.Spec, 6)
	for i := range copies {
		c := s.CloneFrozen()
		copies[i] = c.Nodes()
		for _, n := range copies[i] {
			if !n.Frozen() {
				t.Fatalf("CloneFrozen node %s is not frozen", n.Name)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(copies)-1, func() {
		for _, n := range copies[i] {
			n.FullHash()
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("first hashing of a CloneFrozen copy allocated %.0f times, want 0 (hashes not carried)", allocs)
	}
	sameHashes(t, "CloneFrozen", nodeHashes(copies[0][0]), want)
}

// hashSink keeps the benchmarked FullHash calls from being optimized away.
var hashSink string

// BenchmarkSpecFullHash reads the full hash of every node of the ARES
// DAG, as an install's store probes do: recomputed each time on an
// unfrozen DAG, memoized after the first read on a frozen one.
func BenchmarkSpecFullHash(b *testing.B) {
	s := aresDAG(b, ares.Current.Spec())
	run := func(b *testing.B, root *spec.Spec) {
		nodes := root.Nodes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range nodes {
				hashSink = n.FullHash()
			}
		}
		b.ReportMetric(float64(len(nodes)), "nodes")
	}
	b.Run("unfrozen", func(b *testing.B) { run(b, s.Clone()) })
	b.Run("frozen", func(b *testing.B) { run(b, s.Clone().Freeze()) })
}
