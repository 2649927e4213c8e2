package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// expectedJSON records the concretize workload's output at the default
// seed: the digest of every full hash, and the node counts.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutput struct {
	Seed         int64  `json:"seed"`
	Specs        int    `json:"specs"`
	Fig8DAGNodes int    `json:"fig8_dag_nodes"`
	DAGNodes     int    `json:"dag_nodes"`
	Digest       string `json:"digest"`
}

// sweepDigest is the SHA-256 of "expr<TAB>full-hash" lines sorted by
// expression: one value for all of a sweep's outputs.
func sweepDigest(hashes map[string]string) string {
	lines := make([]string, 0, len(hashes))
	for expr, h := range hashes {
		lines = append(lines, expr+"\t"+h+"\n")
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(sum[:])
}

// concretizeFixture is one `spack spec` process: the repository loaded
// from scratch, the inputs parsed, and two cold concretizers (no memo
// cache) — one for the serial sweep, one for the batch.
type concretizeFixture struct {
	abstracts     []*spec.Spec
	serial, batch *concretize.Concretizer
}

func newConcretizeFixture(seed int64, ops []string, parse *dist) (*concretizeFixture, error) {
	path := fig8Path(seed)
	f := &concretizeFixture{
		serial: concretize.New(path, config.New(), compiler.LLNLRegistry()),
		batch:  concretize.New(path, config.New(), compiler.LLNLRegistry()),
	}
	for _, expr := range ops {
		t0 := time.Now()
		a, err := syntax.Parse(expr)
		if parse != nil {
			parse.add(float64(time.Since(t0)) / float64(time.Microsecond))
		}
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", expr, err)
		}
		f.abstracts = append(f.abstracts, a)
	}
	return f, nil
}

// concretizeInputs is a concretize run's one-time fixture: the specs in
// seeded order, which of them are Fig. 8 packages, and the expected output.
type concretizeInputs struct {
	ops    []string
	isFig8 map[string]bool
	want   expectedOutput
}

// runConcretize solves every spec cold, one at a time and then as one
// parallel batch, pass after pass.
func runConcretize(c settings) (*outcome, error) {
	o := newOutcome(0.95, [3]string{"solve_p50_ms", "solve_p95_ms", "batch_solves_per_s"})
	in, err := oneTimeSetup(o, func() (*concretizeInputs, error) {
		names := fig8Path(c.seed).Names()
		in := &concretizeInputs{ops: concretizeOps(names, c.seed), isFig8: make(map[string]bool, len(names))}
		for _, n := range names {
			in.isFig8[n] = true
		}
		if err := json.Unmarshal(expectedJSON, &in.want); err != nil {
			return nil, fmt.Errorf("expected.json: %w", err)
		}
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	ops, isFig8, want := in.ops, in.isFig8, in.want

	var (
		tracedSolves        dist
		first               map[string]string
		fig8Nodes, dagNodes int
		layers              []layerSet
		parse               dist
	)
	err = runPasses(c, o, func(_ int, kind passKind) error {
		isTraced := kind == traced
		var p *dist
		if isTraced {
			p = &parse
		}
		t0 := time.Now()
		f, err := newConcretizeFixture(c.seed, ops, p)
		if err != nil {
			return err
		}
		o.passSetup = append(o.passSetup, time.Since(t0).Seconds())

		var before runtime.MemStats
		if isTraced {
			runtime.ReadMemStats(&before)
		}
		// bad holds each failed serial op's first failed check, so an op
		// counts once however many checks it fails.
		bad := map[int]string{}
		hashes := make(map[string]string, len(ops))
		serialMS := make([]float64, 0, len(ops))
		fig8Nodes, dagNodes = 0, 0
		for i, a := range f.abstracts {
			t0 := time.Now()
			out, err := f.serial.Concretize(a)
			d := ms(time.Since(t0))
			o.attempted++
			if err != nil {
				bad[i] = fmt.Sprintf("solve %s: %v", ops[i], err)
				continue
			}
			serialMS = append(serialMS, d)
			if !out.Satisfies(a) {
				bad[i] = fmt.Sprintf("solve %s: result %s does not satisfy the request", ops[i], out)
			}
			hashes[ops[i]] = out.FullHash()
			dagNodes += out.Size()
			if isFig8[ops[i]] {
				fig8Nodes += out.Size()
			}
		}
		var after runtime.MemStats
		if isTraced {
			runtime.ReadMemStats(&after)
		}

		t0 = time.Now()
		outs, err := f.batch.ConcretizeAll(f.abstracts)
		batch := time.Since(t0)
		o.attempted += len(ops)
		for i := range ops {
			switch {
			case i >= len(outs) || outs[i] == nil:
				o.fail("batch %s: no result (%v)", ops[i], err)
			case outs[i].FullHash() != hashes[ops[i]]:
				o.fail("batch %s: hash differs from the serial solve", ops[i])
			}
		}

		// The sweep's outputs must repeat across passes, and at the
		// default seed match the recorded digest.
		if first == nil {
			first = hashes
		}
		for i, expr := range ops {
			if _, failed := bad[i]; !failed && first[expr] != hashes[expr] {
				bad[i] = fmt.Sprintf("solve %s: hash changed between passes", expr)
			}
		}
		for _, msg := range bad {
			o.fail("%s", msg)
		}
		if c.seed == want.Seed {
			if got := sweepDigest(hashes); got != want.Digest || len(hashes) != want.Specs || fig8Nodes != want.Fig8DAGNodes || dagNodes != want.DAGNodes {
				o.failN(len(ops)-len(bad), "sweep digest %s (%d specs, %d Fig. 8 nodes, %d nodes), want %s (%d, %d, %d)",
					got, len(hashes), fig8Nodes, dagNodes, want.Digest, want.Specs, want.Fig8DAGNodes, want.DAGNodes)
			}
		}

		switch kind {
		case plain:
			o.opTimes = append(o.opTimes, serialMS)
			o.rates = append(o.rates, float64(len(ops))/batch.Seconds())
		case traced:
			for _, d := range serialMS {
				tracedSolves.add(d)
			}
			n := float64(f.serial.Stats.Runs())
			l := layerSet{
				"concretize.batch_ms":           ms(batch),
				"concretize.alloc_kb_per_solve": ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, n),
				"concretize.allocs_per_solve":   ratio(float64(after.Mallocs-before.Mallocs), n),
				"syntax.parses":                 float64(len(ops)),
			}
			addSolverLayers(l, f.serial)
			layers = append(layers, l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.info["specs"] = len(ops)
	o.info["dag_nodes"] = dagNodes
	o.info["fig8_dag_nodes"] = fig8Nodes
	if first != nil {
		o.info["digest"] = sweepDigest(first)
	}

	if c.trace {
		o.layers = medianLayers(layers)
		o.layers["concretize.solve_ms_p50"] = tracedSolves.q(0.5)
		o.layers["concretize.solve_ms_p99"] = tracedSolves.q(0.99)
		o.layers["syntax.parse_us_p50"] = parse.q(0.5)
		var plainSolves []float64
		for _, xs := range o.opTimes {
			plainSolves = append(plainSolves, xs...)
		}
		o.layers["bench.trace_overhead_frac"] = ratio(tracedSolves.q(0.5), median(plainSolves)) - 1
	}
	return o, nil
}
