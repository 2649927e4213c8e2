// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON report. Each benchmark line becomes
// a record of its iteration count and metrics (ns/op, B/op, allocs/op,
// and any custom b.ReportMetric units). When both the cold and warm
// Fig. 8 sweeps are present, the warm-cache speedup is derived so CI can
// assert the fast-path acceptance bar without re-parsing benchmark text.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value, e.g. "ns/op", "B/op", "dag-nodes".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the full JSON document.
type Report struct {
	Date   string `json:"date"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Maxprocs is the -N suffix of the benchmark names (GOMAXPROCS during
	// the run); 1 when the suffix is absent. Parallel speedups below 1 on
	// a single-CPU host are expected.
	Maxprocs   int                `json:"maxprocs"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	check := flag.Bool("check", false,
		"check mode: treat arguments as BENCH_*.json reports and fail if any declared acceptance bar is missed")
	flag.Parse()

	if *check {
		if err := runCheck(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	rep := Report{Date: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, procs, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
				if procs > rep.Maxprocs {
					rep.Maxprocs = procs
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	rep.Derived = derive(rep.Benchmarks)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parseLine parses one result line of the form
// "BenchmarkName-8  120  9735 ns/op  245 packages  64 B/op", returning
// the parsed record and the GOMAXPROCS suffix (1 when absent).
func parseLine(line string) (Benchmark, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, 0, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, procs, true
}

// derive computes cross-benchmark figures of merit.
func derive(benchmarks []Benchmark) map[string]float64 {
	metric := func(name, unit string) float64 {
		for _, b := range benchmarks {
			if b.Name == name {
				return b.Metrics[unit]
			}
		}
		return 0
	}
	ns := func(name string) float64 { return metric(name, "ns/op") }
	d := map[string]float64{}
	cold := ns("BenchmarkFig8ConcretizeAll")
	if warm := ns("BenchmarkFig8ConcretizeAllWarm"); cold > 0 && warm > 0 {
		d["fig8_warm_cache_speedup"] = cold / warm
	}
	if par := ns("BenchmarkFig8ConcretizeAllParallel"); cold > 0 && par > 0 {
		d["fig8_parallel_speedup"] = cold / par
	}
	// Concretizer reuse leg: re-solving the warm ARES matrix against a
	// fully populated reuse source vs. the cold greedy baseline. Expressed
	// inverted (baseline/reuse) so the bar stays a floor: 0.5 means reuse
	// costs at most 2x the cold greedy solve.
	aresCold := ns("BenchmarkARESConcretizeGreedyCold")
	if reuse := ns("BenchmarkARESConcretizeReuse"); aresCold > 0 && reuse > 0 {
		d["concretize_reuse_overhead_inv"] = aresCold / reuse
	}
	// Store: allocations of saving the database once at the end vs. after
	// every install, at 8 concurrent builders. Expressed inverted
	// (once/each) so the bar stays a floor: 0.5 means saving after every
	// install costs at most 2x saving once. Allocation counts do not
	// depend on the machine, so the bar is steadier than a time ratio.
	saveOnce := metric("BenchmarkStoreContention/save-once/w8", "allocs/op")
	if saveEach := metric("BenchmarkStoreContention/save-each/w8", "allocs/op"); saveOnce > 0 && saveEach > 0 {
		d["store_save_cost_inv_w8"] = saveOnce / saveEach
	}
	// Binary cache: cached ARES install vs. from-source at Jobs=8. The
	// headline speedup compares simulated install time (the virtual-sec
	// metric, as in Fig. 10) — what a user's install wall clock would do;
	// the real-time ratio of the simulator itself rides along as context.
	srcV := metric("BenchmarkBuildcacheARES/source/j8", "virtual-sec")
	cachedV := metric("BenchmarkBuildcacheARES/cached/j8", "virtual-sec")
	if srcV > 0 && cachedV > 0 {
		d["buildcache_speedup_j8"] = srcV / cachedV
	}
	srcNs := ns("BenchmarkBuildcacheARES/source/j8")
	cachedNs := ns("BenchmarkBuildcacheARES/cached/j8")
	if srcNs > 0 && cachedNs > 0 {
		d["buildcache_real_speedup_j8"] = srcNs / cachedNs
	}
	// Buildcache service: the coalescing ratio of the install herd — how
	// many concurrent clients the daemon collapses onto each cache-miss
	// build. With server-side singleflight working this equals the herd
	// size; without it, it degrades toward 1.
	hClients := metric("BenchmarkServiceInstallHerd/herd/c256", "clients")
	hBuilds := metric("BenchmarkServiceInstallHerd/herd/c256", "source-builds")
	if hClients > 0 && hBuilds > 0 {
		d["service_herd_coalescing"] = hClients / hBuilds
	}
	// Distributed scheduler: realized virtual makespan of the cold ARES
	// DAG with N lease workers vs one. The headline bar is the 4-worker
	// scaling; 8-worker scaling and the scale-out-vs-scale-up ratio
	// against the single-machine Jobs=8 build ride along as context.
	sw1 := metric("BenchmarkSchedWorkers/w1", "virtual-sec")
	for _, w := range []int{4, 8} {
		if swn := metric(fmt.Sprintf("BenchmarkSchedWorkers/w%d", w), "virtual-sec"); sw1 > 0 && swn > 0 {
			d[fmt.Sprintf("sched_scaling_%dw", w)] = sw1 / swn
		}
	}
	sw8 := metric("BenchmarkSchedWorkers/w8", "virtual-sec")
	if localJ8 := metric("BenchmarkSchedWorkers/local/j8", "virtual-sec"); sw8 > 0 && localJ8 > 0 {
		d["sched_vs_local_j8"] = sw8 / localJ8
	}
	// Lifecycle: a GC sweep over a majority-dead ARES store must reclaim
	// every dead byte while leaving the live closure byte-identical. The
	// live-intact flag (1 or 0) multiplies in so any drift in a surviving
	// prefix zeroes the metric and fails the bar outright.
	gcPct := metric("BenchmarkLifecycleGC/ares50", "gc-reclaim-pct")
	if gcIntact := metric("BenchmarkLifecycleGC/ares50", "live-intact"); gcPct > 0 {
		d["lifecycle_gc_reclaim_pct"] = gcPct * gcIntact
	}
	// Splice: rewiring the ARES stack's zlib dependent cone by relocating
	// archived binaries vs. recompiling the same cone from source, in
	// simulated install time (both legs reuse everything outside the cone).
	spliceV := metric("BenchmarkSpliceVsRebuild/splice", "virtual-sec")
	rebuildV := metric("BenchmarkSpliceVsRebuild/rebuild-cone", "virtual-sec")
	if spliceV > 0 && rebuildV > 0 {
		d["splice_vs_rebuild_speedup"] = rebuildV / spliceV
	}
	// Environments: re-running `env install` against an unchanged lockfile
	// must be a cheap no-op diff, not a second install.
	envCold := ns("BenchmarkEnvInstall/cold")
	envWarm := ns("BenchmarkEnvInstall/warm")
	if envCold > 0 && envWarm > 0 {
		d["env_warm_lockfile_speedup"] = envCold / envWarm
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
