package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func report(derived map[string]float64) *Report {
	return &Report{Derived: derived}
}

func TestCheckReportPassesAtOrAboveBar(t *testing.T) {
	passes, fails := checkReport("x.json", report(map[string]float64{
		"fig8_warm_cache_speedup": 10.0, // exactly at the bar
		"buildcache_speedup_j8":   96.5,
	}))
	if len(fails) != 0 {
		t.Fatalf("failures = %v", fails)
	}
	if len(passes) != 2 {
		t.Fatalf("passes = %v, want 2 lines", passes)
	}
}

func TestCheckReportFailsBelowBar(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"store_save_cost_inv_w8": 0.12,
	}))
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want 1", fails)
	}
}

func TestCheckReportRequiresAKnownBar(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"some_other_metric": 99,
	}))
	if len(fails) != 1 {
		t.Fatalf("a report without a known bar must fail: %v", fails)
	}
	_, fails = checkReport("x.json", report(nil))
	if len(fails) != 1 {
		t.Fatalf("a report without derived metrics must fail: %v", fails)
	}
}

func TestCheckReportMixedBars(t *testing.T) {
	_, fails := checkReport("x.json", report(map[string]float64{
		"fig8_warm_cache_speedup": 55,
		"buildcache_speedup_j8":   2.5, // below its 5x bar
	}))
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want only the missed bar", fails)
	}
}

func TestRunCheckOnFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		t.Helper()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", report(map[string]float64{"buildcache_speedup_j8": 40}))
	bad := write("bad.json", report(map[string]float64{"buildcache_speedup_j8": 3}))

	if err := runCheck([]string{good}); err != nil {
		t.Errorf("passing report failed: %v", err)
	}
	if err := runCheck([]string{good, bad}); err == nil {
		t.Error("missed bar did not fail the check")
	}
	if err := runCheck(nil); err == nil {
		t.Error("no files should be an error")
	}
	if err := runCheck([]string{filepath.Join(dir, "absent.json")}); err == nil {
		t.Error("unreadable file should be an error")
	}
}

func TestDeriveBuildcacheSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkBuildcacheARES/source/j8",
			Metrics: map[string]float64{"ns/op": 40e6, "virtual-sec": 6.0}},
		{Name: "BenchmarkBuildcacheARES/cached/j8",
			Metrics: map[string]float64{"ns/op": 32e6, "virtual-sec": 0.06}},
	}
	d := derive(benches)
	if got := d["buildcache_speedup_j8"]; got != 100 {
		t.Errorf("buildcache_speedup_j8 = %v, want 100", got)
	}
	if got := d["buildcache_real_speedup_j8"]; got != 1.25 {
		t.Errorf("buildcache_real_speedup_j8 = %v, want 1.25", got)
	}
}

func TestDeriveBuildcachePushCrowding(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkBuildcachePush/alone", Metrics: map[string]float64{"ns/op": 18e6}},
		{Name: "BenchmarkBuildcachePush/crowded", Metrics: map[string]float64{"ns/op": 48e6}},
	}
	d := derive(benches)
	if got := d["buildcache_push_crowding_inv"]; got != 0.375 {
		t.Errorf("buildcache_push_crowding_inv = %v, want 0.375", got)
	}
	if _, fails := checkReport("push", report(d)); len(fails) != 1 {
		t.Errorf("a push slowed by the crowd should miss its bar, failures = %v", fails)
	}
}

func TestDeriveStoreSaveCost(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkStoreContention/save-each/w8",
			Metrics: map[string]float64{"ns/op": 9e6, "allocs/op": 40000}},
		{Name: "BenchmarkStoreContention/save-once/w8",
			Metrics: map[string]float64{"ns/op": 3e6, "allocs/op": 32000}},
		{Name: "BenchmarkStoreLookupContention/w8",
			Metrics: map[string]float64{"ns/op": 1e6, "allocs/op": 16}},
	}
	d := derive(benches)
	if got := d["store_save_cost_inv_w8"]; got != 0.8 {
		t.Errorf("store_save_cost_inv_w8 = %v, want 0.8", got)
	}
	if len(d) != 1 {
		t.Errorf("derived = %v, want only store_save_cost_inv_w8", d)
	}
}

func TestDeriveSpliceSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkSpliceVsRebuild/splice",
			Metrics: map[string]float64{"virtual-sec": 0.05}},
		{Name: "BenchmarkSpliceVsRebuild/rebuild-cone",
			Metrics: map[string]float64{"virtual-sec": 5.0}},
	}
	d := derive(benches)
	if got := d["splice_vs_rebuild_speedup"]; got != 100 {
		t.Errorf("splice_vs_rebuild_speedup = %v, want 100", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived splice report should clear its bar: %v", fails)
	}
	// A splice as slow as the rebuild it replaces misses the bar.
	benches[0].Metrics["virtual-sec"] = 4.0
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("slow splice must miss the bar: %v", fails)
	}
}

func TestDeriveEnvWarmSpeedup(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkEnvInstall/cold", Metrics: map[string]float64{"ns/op": 50e6}},
		{Name: "BenchmarkEnvInstall/warm", Metrics: map[string]float64{"ns/op": 1e6}},
	}
	d := derive(benches)
	if got := d["env_warm_lockfile_speedup"]; got != 50 {
		t.Errorf("env_warm_lockfile_speedup = %v, want 50", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived env report should clear its bar: %v", fails)
	}
}

func TestDeriveServiceHerdCoalescing(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkServiceInstallHerd/herd/c256",
			Metrics: map[string]float64{"clients": 256, "source-builds": 1}},
	}
	d := derive(benches)
	if got := d["service_herd_coalescing"]; got != 256 {
		t.Errorf("service_herd_coalescing = %v, want 256", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived service report should clear its bar: %v", fails)
	}
	// A daemon that never coalesces (one build per client) misses the bar.
	benches[0].Metrics["source-builds"] = 256
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("uncoalesced herd must miss the bar: %v", fails)
	}
}

func TestDeriveSchedScaling(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkSchedWorkers/w1", Metrics: map[string]float64{"virtual-sec": 16.0}},
		{Name: "BenchmarkSchedWorkers/w4", Metrics: map[string]float64{"virtual-sec": 8.0}},
		{Name: "BenchmarkSchedWorkers/w8", Metrics: map[string]float64{"virtual-sec": 6.4}},
		{Name: "BenchmarkSchedWorkers/local/j8", Metrics: map[string]float64{"virtual-sec": 6.4}},
	}
	d := derive(benches)
	if got := d["sched_scaling_4w"]; got != 2 {
		t.Errorf("sched_scaling_4w = %v, want 2", got)
	}
	if got := d["sched_scaling_8w"]; got != 2.5 {
		t.Errorf("sched_scaling_8w = %v, want 2.5", got)
	}
	if got := d["sched_vs_local_j8"]; got != 1 {
		t.Errorf("sched_vs_local_j8 = %v, want 1", got)
	}
	if _, fails := checkReport("x.json", report(d)); len(fails) != 0 {
		t.Errorf("derived sched report should clear its bar: %v", fails)
	}
	// A scheduler that serializes everything (no scaling) misses the bar.
	benches[1].Metrics["virtual-sec"] = 15.0
	if _, fails := checkReport("x.json", report(derive(benches))); len(fails) != 1 {
		t.Errorf("unscaled fleet must miss the bar: %v", fails)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	b, procs, ok := parseLine("BenchmarkBuildcacheARES/cached/j8-8 \t 3\t  33796699 ns/op\t 47.00 dag-nodes\t 0.058 virtual-sec")
	if !ok {
		t.Fatal("parseLine failed")
	}
	if b.Name != "BenchmarkBuildcacheARES/cached/j8" || procs != 8 {
		t.Errorf("name/procs = %q/%d", b.Name, procs)
	}
	if b.Metrics["virtual-sec"] != 0.058 || b.Metrics["dag-nodes"] != 47 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}
