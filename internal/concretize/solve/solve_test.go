package solve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// TestCompareProviders: the lexicographic criteria — reuse outranks policy
// rank, rank outranks name, name breaks ties deterministically.
func TestCompareProviders(t *testing.T) {
	cases := []struct {
		name string
		a, b Provider
		want int // sign only
	}{
		{"reused wins over rank", Provider{Name: "z", Rank: 9, Reused: true}, Provider{Name: "a", Rank: 0}, -1},
		{"rank wins over name", Provider{Name: "z", Rank: 0}, Provider{Name: "a", Rank: 1}, -1},
		{"name breaks ties", Provider{Name: "a"}, Provider{Name: "b"}, -1},
		{"equal", Provider{Name: "a"}, Provider{Name: "a"}, 0},
	}
	for _, c := range cases {
		got := CompareProviders(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("%s: CompareProviders = %d, want sign %d", c.name, got, c.want)
		}
		if c.want != 0 && sign(CompareProviders(c.b, c.a)) != -c.want {
			t.Errorf("%s: comparison not antisymmetric", c.name)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestRankProviders(t *testing.T) {
	ps := []Provider{
		{Name: "mvapich", Rank: 2},
		{Name: "openmpi", Rank: 1 << 20},
		{Name: "mpich", Rank: 1 << 20, Reused: true},
		{Name: "cray-mpi", Rank: 1},
	}
	RankProviders(ps)
	want := []string{"mpich", "cray-mpi", "mvapich", "openmpi"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("rank order = %v, want %v", names(ps), want)
		}
	}
}

func names(ps []Provider) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestMinimizeCoreMinimal: with two independent conflicts among three
// candidate facts, the core keeps exactly the conflicting two.
func TestMinimizeCoreMinimal(t *testing.T) {
	facts := []Fact{
		{ID: 0, Detail: "a@1"},
		{ID: 1, Detail: "b@2"},
		{ID: 2, Detail: "c@3"},
	}
	// SAT iff both fact 0 and fact 2 are removed; fact 1 is innocent.
	satWithout := func(removed []Fact) bool {
		gone := map[int]bool{}
		for _, f := range removed {
			gone[f.ID] = true
		}
		return gone[0] && gone[2]
	}
	core := MinimizeCore(facts, satWithout)
	got := map[int]bool{}
	for _, f := range core {
		got[f.ID] = true
	}
	if !reflect.DeepEqual(got, map[int]bool{0: true, 2: true}) {
		t.Errorf("core = %v, want facts 0 and 2", core)
	}
}

// TestMinimizeCoreDirectiveConflict: when removing everything still leaves
// the problem UNSAT (the conflict lives in package directives, not the
// input), there is no core.
func TestMinimizeCoreDirectiveConflict(t *testing.T) {
	facts := []Fact{{ID: 0}, {ID: 1}}
	if core := MinimizeCore(facts, func([]Fact) bool { return false }); core != nil {
		t.Errorf("core = %v, want nil for a directive-level conflict", core)
	}
}

// TestMinimizeCoreAlreadySat: if the empty removal set repairs the problem
// the input constraints are not to blame — no core.
func TestMinimizeCoreAlreadySat(t *testing.T) {
	facts := []Fact{{ID: 0}}
	if core := MinimizeCore(facts, func([]Fact) bool { return true }); core != nil {
		t.Errorf("core = %v, want nil when even the empty removal repairs", core)
	}
}

func TestMinimizeCoreEmptyCandidates(t *testing.T) {
	if core := MinimizeCore(nil, func([]Fact) bool { return true }); core != nil {
		t.Errorf("core = %v, want nil for no candidates", core)
	}
}

// TestTrailNilSafe: a nil trail swallows writes, so hot paths need no guard.
func TestTrailNilSafe(t *testing.T) {
	var tr *Trail
	tr.Addf("ignored %d", 1)
	if lines := tr.Lines(); lines != nil {
		t.Errorf("nil trail lines = %v", lines)
	}
	tr = NewTrail()
	tr.Addf("a %d", 1)
	tr.Addf("b")
	if got := tr.Lines(); !reflect.DeepEqual(got, []string{"a 1", "b"}) {
		t.Errorf("lines = %v", got)
	}
}

// scriptedEval fails a fixed number of leading attempts, recording the
// forced assignment of each.
type scriptedEval struct {
	failures int
	calls    []map[string]string
}

func (e *scriptedEval) Try(forced map[string]string) (*spec.Spec, error) {
	cp := make(map[string]string, len(forced))
	for k, v := range forced {
		cp[k] = v
	}
	e.calls = append(e.calls, cp)
	if len(e.calls) <= e.failures {
		return nil, errors.New("conflict")
	}
	return spec.New("ok"), nil
}

// search runs the concretizer's protocol against the scripted evaluator:
// the greedy leaf (nothing forced) first, and the search only after it
// conflicts.
func (e *scriptedEval) search(tr *Trail) (*spec.Spec, error) {
	out, err := e.Try(nil)
	if err == nil {
		return out, nil
	}
	s := &Solver{Problem: testProblem(), Eval: e.Try, Trail: tr}
	return s.Search(err)
}

func testProblem() *Problem {
	return &Problem{
		Root: "root",
		Virtuals: []VirtualFacts{
			{Name: "mpi", Reachable: true, Providers: []Provider{{Name: "openmpi"}, {Name: "mpich"}}},
			{Name: "blas", Reachable: false, Providers: []Provider{{Name: "openblas"}}},
		},
	}
}

// TestSearchBacktracks: after the greedy leaf conflicts, the search
// explores provider assignments in criteria order.
func TestSearchBacktracks(t *testing.T) {
	eval := &scriptedEval{failures: 2}
	tr := NewTrail()
	if _, err := eval.search(tr); err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{{}, {"mpi": "openmpi"}, {"mpi": "mpich"}}
	if !reflect.DeepEqual(eval.calls, want) {
		t.Errorf("calls = %v, want %v", eval.calls, want)
	}
	// Only the reachable virtual is branched on; the unreachable one never
	// appears in a forced assignment.
	for _, call := range eval.calls {
		if _, ok := call["blas"]; ok {
			t.Errorf("unreachable virtual was branched on: %v", call)
		}
	}
	lines := tr.Lines()
	if len(lines) == 0 || lines[0] != "greedy pass conflicts: conflict" {
		t.Errorf("trail should start at the greedy conflict: %v", lines)
	}
	if !containsLine(lines, "prune: virtual blas unreachable from root") {
		t.Errorf("trail missing prune line: %v", lines)
	}
}

// TestSearchNoRepeatedLeaf: no assignment is evaluated twice — in
// particular the search never re-runs the all-unforced greedy leaf its
// caller already evaluated.
func TestSearchNoRepeatedLeaf(t *testing.T) {
	for failures := 1; failures <= 4; failures++ {
		eval := &scriptedEval{failures: failures}
		eval.search(nil)
		seen := map[string]bool{}
		for _, call := range eval.calls {
			key := fmt.Sprint(call)
			if seen[key] {
				t.Errorf("failures=%d: assignment %s evaluated twice in %v", failures, key, eval.calls)
			}
			seen[key] = true
		}
	}
}

// TestSearchExhaustionReportsGreedyError: on a fully UNSAT instance the
// first (greedy) conflict is what the caller sees.
func TestSearchExhaustionReportsGreedyError(t *testing.T) {
	eval := &scriptedEval{failures: 1 << 10}
	s := &Solver{Problem: testProblem(), Eval: eval.Try}
	_, err := s.Search(errors.New("greedy conflict"))
	if err == nil {
		t.Fatal("exhausted search should fail")
	}
	if err.Error() != "greedy conflict" {
		t.Errorf("err = %v, want the greedy conflict", err)
	}
}

func containsLine(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}
