// Concretizer v2 acceptance checks: the layered reify → solve → decode
// pipeline must produce exactly the DAGs the paper's greedy algorithm did
// when no reuse source is configured, and with -reuse against a fully
// populated store it must resolve nearly every node to an existing hash.
package repro

import (
	"testing"

	"repro/internal/ares"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// TestFig8SolverParity: across the full 245-package Fig. 8 repository, the
// greedy mode and the backtracking mode produce identical DAG hashes —
// backtracking only ever widens the search after the greedy pass
// conflicts, which none of these do, so it records no backtracks.
func TestFig8SolverParity(t *testing.T) {
	path := fig8Path()
	greedy := concretize.New(path, config.New(), compiler.LLNLRegistry())
	solver := concretize.New(path, config.New(), compiler.LLNLRegistry())
	solver.Backtracking = true
	for _, name := range path.Names() {
		g, err := greedy.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("greedy %s: %v", name, err)
		}
		s, err := solver.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("solver %s: %v", name, err)
		}
		if g.DAGHash() != s.DAGHash() {
			t.Errorf("%s: greedy %s != solver %s", name, g.DAGHash(), s.DAGHash())
		}
	}
	if n := solver.Stats.Backtracks(); n != 0 {
		t.Errorf("backtracking solver recorded %d backtracks, want 0: every greedy pass succeeds", n)
	}
}

// TestARESMatrixParity: the 36 nightly ARES configurations of Table 3 stay
// hash-identical between the two modes, with no backtracks.
func TestARESMatrixParity(t *testing.T) {
	path := repo.NewPath(ares.Repo(), repo.Builtin())
	greedy := concretize.New(path, config.New(), compiler.LLNLRegistry())
	solver := concretize.New(path, config.New(), compiler.LLNLRegistry())
	solver.Backtracking = true
	for _, cell := range ares.Matrix() {
		for _, cfg := range cell.Configs {
			expr := ares.SpecFor(cell, cfg)
			g, err := greedy.Concretize(syntax.MustParse(expr))
			if err != nil {
				t.Fatalf("greedy %s: %v", expr, err)
			}
			s, err := solver.Concretize(syntax.MustParse(expr))
			if err != nil {
				t.Fatalf("solver %s: %v", expr, err)
			}
			if g.DAGHash() != s.DAGHash() {
				t.Errorf("%s: greedy %s != solver %s", expr, g.DAGHash(), s.DAGHash())
			}
		}
	}
	if n := solver.Stats.Backtracks(); n != 0 {
		t.Errorf("backtracking solver recorded %d backtracks, want 0: every greedy pass succeeds", n)
	}
}

// memSource offers a fixed candidate set — "a fully populated store".
type memSource struct {
	fp    string
	cands map[string]*spec.Spec
}

func (m *memSource) ReuseCandidates() (map[string]*spec.Spec, error) { return m.cands, nil }
func (m *memSource) ReuseFingerprint() string                        { return m.fp }

// TestFig8ReuseFraction: re-concretizing the Fig. 8 sweep against a source
// holding every previously concretized DAG reuses at least 90% of the
// solved nodes, and every reported hash really exists in the source.
func TestFig8ReuseFraction(t *testing.T) {
	path := fig8Path()
	cold := concretize.New(path, config.New(), compiler.LLNLRegistry())
	src := &memSource{fp: "full-store", cands: map[string]*spec.Spec{}}
	for _, name := range path.Names() {
		out, err := cold.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src.cands[out.FullHash()] = out
	}

	// A store installs every node of a DAG, so "already installed" means
	// membership in the full node-hash set, not just the roots.
	installed := map[string]bool{}
	for _, root := range src.cands {
		for _, n := range root.Nodes() {
			installed[n.FullHash()] = true
		}
	}

	warm := concretize.New(path, config.New(), compiler.LLNLRegistry())
	warm.Reuse = src
	var nodes, hits int
	for _, name := range path.Names() {
		out, err := warm.Concretize(spec.New(name))
		if err != nil {
			t.Fatalf("reuse %s: %v", name, err)
		}
		for _, n := range out.Nodes() {
			nodes++
			if installed[n.FullHash()] {
				hits++
			}
		}
	}
	// A few roots may legitimately re-mix: reuse pins one best config per
	// package globally, so a root whose own DAG carried a different variant
	// of a shared dep gets that dep swapped and re-hashes. The bar is
	// node-weighted: >= 90% of what the solve produces already exists.
	if frac := float64(hits) / float64(nodes); frac < 0.9 {
		t.Errorf("installed-node fraction = %.3f (%d/%d), want >= 0.90", frac, hits, nodes)
	}
	solved, reused := warm.Stats.SolvedNodes(), warm.Stats.ReusedNodes()
	if solved == 0 {
		t.Fatal("no solved nodes counted")
	}
	if frac := float64(reused) / float64(solved); frac < 0.9 {
		t.Errorf("reuse fraction = %.3f (%d/%d), want >= 0.90", frac, reused, solved)
	}
}
