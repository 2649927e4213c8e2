package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// bar is one acceptance bar a benchmark suite declares: a derived metric
// that must stay at or above its floor. CI runs `benchjson -check` over
// every BENCH_*.json so a regression that erodes a speedup fails the
// build instead of rotting silently.
type bar struct {
	key string
	min float64
}

// bars lists every known acceptance bar. A report is matched by whichever
// keys its Derived map carries; a report carrying none of them fails the
// check outright — a bench suite without a bar is not a quality gate.
var bars = []bar{
	// Concretizer memo cache: warm Fig. 8 sweep ≥10x over cold.
	{"fig8_warm_cache_speedup", 10},
	// Concretizer reuse: solving against a fully populated reuse source
	// costs at most 2x the cold greedy solve (inverted ratio, floor 0.5).
	{"concretize_reuse_overhead_inv", 0.5},
	// Store: saving after every install costs at most 2x the allocations
	// of saving once at the end, at 8 workers (inverted ratio, floor 0.5).
	{"store_save_cost_inv_w8", 0.5},
	// Binary cache: cached ARES install ≥5x faster (simulated install
	// time) than building from source at Jobs=8.
	{"buildcache_speedup_j8", 5},
	// Binary cache push: a store crowded with other installed matrix
	// configurations at most doubles the wall time of pushing the ARES
	// DAG (inverted ratio, floor 0.5).
	{"buildcache_push_crowding_inv", 0.5},
	// Environments: `env install` on an unchanged lockfile is a no-op
	// diff ≥10x cheaper than the cold install it short-circuits.
	{"env_warm_lockfile_speedup", 10},
	// Buildcache service: the install herd must coalesce ≥8 concurrent
	// clients per cache-miss build (measured at 256 clients ⇒ 1 build).
	{"service_herd_coalescing", 8},
	// Distributed scheduler: 4 lease workers must at least halve the
	// one-worker virtual makespan of the cold ARES DAG.
	{"sched_scaling_4w", 2},
	// Lifecycle: GC of a majority-dead ARES store reclaims ≥95% of the
	// dead bytes with the live closure byte-identical (the intact flag
	// zeroes the metric otherwise).
	{"lifecycle_gc_reclaim_pct", 95},
	// Splice: rewiring the ARES zlib cone by relocation must beat
	// recompiling that cone ≥5x in simulated install time.
	{"splice_vs_rebuild_speedup", 5},
}

// checkReport evaluates one parsed report against the declared bars,
// returning human-readable pass lines and failures.
func checkReport(name string, rep *Report) (passes, failures []string) {
	matched := false
	for _, b := range bars {
		v, ok := rep.Derived[b.key]
		if !ok {
			continue
		}
		matched = true
		if v < b.min {
			failures = append(failures,
				fmt.Sprintf("%s: %s = %.2f, below the %.3gx bar", name, b.key, v, b.min))
			continue
		}
		passes = append(passes,
			fmt.Sprintf("%s: %s = %.2f (bar %.3gx)", name, b.key, v, b.min))
	}
	if !matched {
		known := make([]string, len(bars))
		for i, b := range bars {
			known[i] = b.key
		}
		failures = append(failures,
			fmt.Sprintf("%s: no known acceptance bar among derived metrics (want one of %s)",
				name, strings.Join(known, ", ")))
	}
	return passes, failures
}

// runCheck loads each JSON report and fails if any declared bar is
// missed (or a report declares none).
func runCheck(files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-check needs at least one BENCH_*.json file")
	}
	var failures []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		passes, fails := checkReport(file, &rep)
		for _, p := range passes {
			fmt.Println("ok  ", p)
		}
		failures = append(failures, fails...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d bar(s) missed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
