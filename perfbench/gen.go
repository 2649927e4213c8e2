package main

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ares"
	"repro/internal/repo"
)

// This file turns a workload seed into the inputs the program sees. Every
// list here is a pure function of its arguments, so one seed always gives
// one set of inputs (gen_test.go checks it).

// fig8Size is the package count of Spack's 2015 repository, the size
// Fig. 8 concretizes.
const fig8Size = 245

// fig8Repo returns the synthetic fill that grows builtin + ARES to the
// 245 packages of Fig. 8. Seed 2015 reproduces the paper's repository;
// other seeds give the same package count with different DAG shapes.
func fig8Repo(seed int64) *repo.Repo {
	synth := repo.NewRepo("synthetic")
	repo.Synthesize(synth, fig8Size-repo.Builtin().Len()-ares.Repo().Len(), seed)
	return synth
}

// fig8Path is the package search path `spack spec` loads for the
// concretize workload.
func fig8Path(seed int64) *repo.Path {
	return repo.NewPath(ares.Repo(), fig8Repo(seed), repo.Builtin())
}

// matrixSpecs lists the 36 Table 3 configurations in matrix order.
func matrixSpecs() []string {
	var out []string
	for _, e := range ares.MatrixEntries() {
		out = append(out, ares.SpecFor(e.Cell, e.Config))
	}
	return out
}

// shuffled returns a seeded permutation of xs (xs is not modified).
func shuffled(xs []string, seed int64) []string {
	out := append([]string(nil), xs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// concretizeOps is the concretize workload's solve list: every package
// name of the repository plus the 36 ARES matrix specs, in seeded order.
func concretizeOps(names []string, seed int64) []string {
	return shuffled(append(append([]string(nil), names...), matrixSpecs()...), seed)
}

// exactSpec renders one matrix config so that only that config satisfies
// it. core.Install reuses any installed record that satisfies the
// request, so "ares@15.07" would be answered by an earlier
// "ares@15.07+lite" install; spelling out "~lite" makes every request
// name exactly its own config. The concrete result is unchanged.
func exactSpec(e ares.MatrixEntry) string {
	expr := ares.SpecFor(e.Cell, e.Config)
	if e.Config != ares.Lite {
		expr = strings.Replace(expr, " ", "~lite ", 1)
	}
	return expr
}

// exactMatrixSpecs lists the 36 configs, in matrix order, as exactSpec
// renders them.
func exactMatrixSpecs() []string {
	var out []string
	for _, e := range ares.MatrixEntries() {
		out = append(out, exactSpec(e))
	}
	return out
}

// rolloutOps is the config order of one rollout pass. Each pass has its
// own seeded order, because how much of a config's DAG an earlier config
// already built depends on the order; with exact specs the total work of
// a pass is the same whatever the order.
func rolloutOps(seed int64, pass int) []string {
	return shuffled(exactMatrixSpecs(), seed*1_000_003+int64(pass))
}

// spliceReplacements maps every ares@15.07 config (as exactSpec renders
// it) to the older zlib it is spliced onto: zlib@1.2.7 built with the
// config's own compiler and architecture (the configs themselves resolve
// zlib@1.2.8).
func spliceReplacements() map[string]string {
	out := make(map[string]string)
	for _, e := range ares.MatrixEntries() {
		if e.Config == ares.Current {
			out[exactSpec(e)] = "zlib@1.2.7 %" + e.Cell.Compiler + " =" + e.Cell.Arch
		}
	}
	return out
}

// Request kinds of the daemon trace.
const (
	reqConcretize = "concretize"
	reqInstall    = "install"
	reqBlob       = "blob"
)

// request is one daemon call: the spec expression to concretize or
// install, or the buildcache blob name to download.
type request struct {
	Kind string
	Arg  string
}

// zipfPicker draws from xs with Zipf-distributed popularity. The
// popularity ranking is a fixed shuffle, the same for every seed: the
// seed draws the request sequence, but cannot decide whether the hottest
// package has a 2-node or a 20-node DAG, which would move the daemon's
// median by itself.
type zipfPicker struct {
	xs []string
	z  *rand.Zipf
}

func newZipfPicker(rng *rand.Rand, xs []string) *zipfPicker {
	ranked := append([]string(nil), xs...)
	sort.Strings(ranked)
	rand.New(rand.NewSource(1)).Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	return &zipfPicker{xs: ranked, z: rand.NewZipf(rng, 1.1, 1, uint64(len(ranked)-1))}
}

func (p *zipfPicker) pick() string { return p.xs[p.z.Uint64()] }

// daemonTrace is the daemon workload's request trace, n requests: about
// 60% POST /v1/concretize, 30% POST /v1/install of matrix configs, and 10%
// archive downloads. Concretize requests draw from the package names and
// the ARES specs, each family with its own Zipf popularity and the ARES
// specs getting their share of the pool.
func daemonTrace(seed int64, names, configs, archives []string, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	pkgs := newZipfPicker(rng, names)
	aresSolves := newZipfPicker(rng, configs)
	installs := newZipfPicker(rng, configs)
	blobs := newZipfPicker(rng, archives)
	aresShare := 0.6 * float64(len(configs)) / float64(len(names)+len(configs))
	out := make([]request, n)
	for i := range out {
		switch r := rng.Float64(); {
		case r < aresShare:
			out[i] = request{reqConcretize, aresSolves.pick()}
		case r < 0.6:
			out[i] = request{reqConcretize, pkgs.pick()}
		case r < 0.9:
			out[i] = request{reqInstall, installs.pick()}
		default:
			out[i] = request{reqBlob, blobs.pick()}
		}
	}
	return out
}
