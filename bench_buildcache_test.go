// Binary-cache benchmarks (run via `make bench-buildcache` →
// BENCH_buildcache.json):
//
//	BenchmarkBuildcacheARES/{source,cached}/j8 — install the 47-package
//	    ARES stack (Fig. 13's production code) on a fresh machine, either
//	    compiling every node from source or pulling relocatable archives
//	    from a shared binary cache seeded once by a build machine. The
//	    cached leg pays checksum verification + relocation instead of
//	    fetch/stage/compile, which is where buildcaches earn their keep:
//	    the acceptance bar (enforced by `benchjson -check`) is
//	    buildcache_speedup_j8 ≥ 5.
//
//	BenchmarkBuildcachePush/{alone,crowded} — push the ARES DAG into a
//	    fresh cache from a store that holds only ARES, and from one that
//	    also holds several other installed matrix configurations. Packing
//	    a prefix must cost what that prefix holds, not what the whole
//	    filesystem holds: the bar is buildcache_push_crowding_inv =
//	    ns/op(alone) ÷ ns/op(crowded) ≥ 0.5.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/fetch"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

var (
	bcOnce    sync.Once
	bcSpec    *spec.Spec        // concretized ARES DAG, shared read-only
	bcSources *fetch.Mirror     // published source archives, shared read-only
	bcCache   *buildcache.Cache // seeded once from a throwaway build machine
	bcNodes   int               // non-external DAG nodes = expected cache hits
	bcErr     error
)

// bcSetup concretizes ARES once, builds it from source on a seed machine,
// and pushes the full DAG into a mirror-backed cache. Every benchmark
// iteration then starts a brand-new machine (fresh simfs + store) so no
// state leaks between iterations; only the immutable mirrors are shared.
func bcSetup() {
	bcOnce.Do(func() {
		path := repo.NewPath(ares.Repo(), repo.Builtin())
		c := concretize.New(path, config.New(), compiler.LLNLRegistry())
		bcSpec, bcErr = c.Concretize(syntax.MustParse(ares.Current.Spec()))
		if bcErr != nil {
			return
		}
		bcSources = fetch.NewMirror()
		repo.PublishAll(bcSources, ares.Repo(), repo.Builtin())

		seed := newBenchMachine(nil)
		if _, bcErr = seed.Build(bcSpec); bcErr != nil {
			return
		}
		bcCache = buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
		if _, bcErr = bcCache.PushDAG(seed.Store, bcSpec); bcErr != nil {
			return
		}
		for _, n := range bcSpec.TopoOrder() {
			if !n.External {
				bcNodes++
			}
		}
	})
}

// newBenchMachine is one fresh install target: its own filesystem and
// store, the shared source mirror, and optionally the shared cache.
func newBenchMachine(cache *buildcache.Cache) *build.Builder {
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		panic(err)
	}
	b := build.NewBuilder(st, repo.NewPath(ares.Repo(), repo.Builtin()), compiler.LLNLRegistry())
	b.Mirror = bcSources
	b.Config = config.New()
	b.Jobs = 8
	b.Cache = cache
	if cache == nil {
		b.CachePolicy = build.CacheNever
	}
	return b
}

func BenchmarkBuildcacheARES(b *testing.B) {
	bcSetup()
	if bcErr != nil {
		b.Fatal(bcErr)
	}
	b.Run("source/j8", func(b *testing.B) {
		var virtual float64
		for i := 0; i < b.N; i++ {
			m := newBenchMachine(nil)
			res, err := m.Build(bcSpec)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != 0 {
				b.Fatalf("source leg hit the cache %d times", res.CacheHits)
			}
			virtual = res.WallTime.Seconds()
		}
		b.ReportMetric(virtual, "virtual-sec")
		b.ReportMetric(float64(bcSpec.Size()), "dag-nodes")
	})
	b.Run("cached/j8", func(b *testing.B) {
		var virtual float64
		for i := 0; i < b.N; i++ {
			m := newBenchMachine(bcCache)
			res, err := m.Build(bcSpec)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != bcNodes {
				b.Fatalf("cache hits = %d, want %d (misses %d, fallbacks %d)",
					res.CacheHits, bcNodes, res.CacheMisses, res.CacheFallbacks)
			}
			virtual = res.WallTime.Seconds()
		}
		b.ReportMetric(virtual, "virtual-sec")
		b.ReportMetric(float64(bcSpec.Size()), "dag-nodes")
	})
}

// TestBuildcacheBenchSanity keeps the bench wiring honest under plain
// `go test`: the cached machine must install the identical DAG the
// source machine does, from binaries alone.
func TestBuildcacheBenchSanity(t *testing.T) {
	bcSetup()
	if bcErr != nil {
		t.Fatal(bcErr)
	}
	m := newBenchMachine(bcCache)
	m.CachePolicy = build.CacheOnly
	res, err := m.Build(bcSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != bcNodes {
		t.Fatalf("cache hits = %d, want %d", res.CacheHits, bcNodes)
	}
	for _, n := range bcSpec.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := m.Store.Lookup(n)
		if !ok {
			t.Fatalf("%s missing after cache-only install", n.Name)
		}
		if rec.Origin != store.OriginBinary {
			t.Fatalf("%s origin = %q, want %q", n.Name, rec.Origin, store.OriginBinary)
		}
	}
}

var (
	pushOnce    sync.Once
	pushAlone   *store.Store // ARES only
	pushCrowded *store.Store // ARES plus every fourth matrix configuration
	pushErr     error
)

// pushSetup installs the two source stores of BenchmarkBuildcachePush.
func pushSetup() {
	pushOnce.Do(func() {
		alone := newBenchMachine(nil)
		if _, pushErr = alone.Build(bcSpec); pushErr != nil {
			return
		}
		crowded := newBenchMachine(nil)
		if _, pushErr = crowded.Build(bcSpec); pushErr != nil {
			return
		}
		c := concretize.New(repo.NewPath(ares.Repo(), repo.Builtin()), config.New(), compiler.LLNLRegistry())
		for i, e := range ares.MatrixEntries() {
			if i%4 != 0 {
				continue
			}
			s, err := c.Concretize(e.Abstract)
			if err == nil {
				_, err = crowded.Build(s)
			}
			if err != nil {
				pushErr = fmt.Errorf("%s: %w", e.Abstract, err)
				return
			}
		}
		pushAlone, pushCrowded = alone.Store, crowded.Store
	})
}

func BenchmarkBuildcachePush(b *testing.B) {
	bcSetup()
	if bcErr != nil {
		b.Fatal(bcErr)
	}
	pushSetup()
	if pushErr != nil {
		b.Fatal(pushErr)
	}
	// Build logs name numbered stage directories, so archives of two
	// separate builds differ in bytes; what each archive packs must not.
	var want []string
	for _, leg := range []struct {
		name string
		st   *store.Store
	}{{"alone", pushAlone}, {"crowded", pushCrowded}} {
		b.Run(leg.name, func(b *testing.B) {
			var packed []string
			for i := 0; i < b.N; i++ {
				cache := buildcache.New(buildcache.NewMirrorBackend(fetch.NewMirror()))
				entries, err := cache.PushDAG(leg.st, bcSpec)
				if err != nil {
					b.Fatal(err)
				}
				packed = packed[:0]
				for _, e := range entries {
					packed = append(packed, fmt.Sprintf("%s:%d", e.FullHash, e.Files))
				}
			}
			if want == nil {
				want = append([]string(nil), packed...)
			} else if fmt.Sprint(packed) != fmt.Sprint(want) {
				b.Fatalf("crowded store packed %v, store holding ARES alone %v", packed, want)
			}
			b.ReportMetric(float64(len(packed)), "archives")
			b.ReportMetric(float64(leg.st.FS.FileCount()), "fs-files")
		})
	}
}
