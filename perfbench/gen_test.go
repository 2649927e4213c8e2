package main

import (
	"reflect"
	"testing"
)

// testInputs is everything the benchmark generates from one seed.
type testInputs struct {
	fig8     string
	solves   []string
	rollouts [][]string
	trace    []request
}

func inputsFor(seed int64) testInputs {
	path := fig8Path(seed)
	names := path.Names()
	archives := []string{"a.spack.json", "b.spack.json", "c.spack.json"}
	return testInputs{
		fig8:     path.Fingerprint(),
		solves:   concretizeOps(names, seed),
		rollouts: [][]string{rolloutOps(seed, 0), rolloutOps(seed, 1)},
		trace:    daemonTrace(seed, names, matrixSpecs(), archives, 500),
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{2015, 1, 42} {
		if a, b := inputsFor(seed), inputsFor(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d generated different inputs on two calls", seed)
		}
	}
}

func TestDifferentSeedsDifferentInputs(t *testing.T) {
	a, b := inputsFor(2015), inputsFor(2016)
	if a.fig8 == b.fig8 {
		t.Error("the Fig. 8 repository does not depend on the seed")
	}
	if reflect.DeepEqual(a.solves, b.solves) {
		t.Error("the concretize op list does not depend on the seed")
	}
	if reflect.DeepEqual(a.rollouts, b.rollouts) {
		t.Error("the rollout orders do not depend on the seed")
	}
	if reflect.DeepEqual(a.rollouts[0], a.rollouts[1]) {
		t.Error("two rollout passes share one order")
	}
	if reflect.DeepEqual(a.trace, b.trace) {
		t.Error("the daemon trace does not depend on the seed")
	}
}

func TestInputShapes(t *testing.T) {
	in := inputsFor(2015)
	if got := len(fig8Path(2015).Names()); got != fig8Size {
		t.Errorf("Fig. 8 repository has %d packages, want %d", got, fig8Size)
	}
	if got, want := len(in.solves), fig8Size+36; got != want {
		t.Errorf("concretize ops: %d, want %d", got, want)
	}
	for _, order := range in.rollouts {
		seen := map[string]bool{}
		for _, expr := range order {
			seen[expr] = true
		}
		if len(order) != 36 || len(seen) != 36 {
			t.Errorf("rollout order has %d entries, %d distinct; want 36 distinct configs", len(order), len(seen))
		}
	}
	if got := len(spliceReplacements()); got != 9 {
		t.Errorf("%d ares@15.07 configs to splice, want 9", got)
	}

	kinds := map[string]int{}
	for _, r := range daemonTrace(7, fig8Path(7).Names(), matrixSpecs(), []string{"x"}, 20000) {
		kinds[r.Kind]++
	}
	for kind, want := range map[string]float64{reqConcretize: 0.6, reqInstall: 0.3, reqBlob: 0.1} {
		if got := float64(kinds[kind]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want about %.1f", kind, got, want)
		}
	}
}
