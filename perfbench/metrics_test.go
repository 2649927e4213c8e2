package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric tables in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		w = append(w, defs...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s metrics differ from the program's:\n got %v\nwant %v", kind, g, w)
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestEndToEndLeavesStolenPassesOut checks that a pass slowed by host CPU
// steal does not move the end-to-end timings, and that a run stolen
// throughout still reports from its least-stolen half.
func TestEndToEndLeavesStolenPassesOut(t *testing.T) {
	o := newOutcome(0.9, [3]string{})
	for _, p := range []struct {
		op, steal float64
	}{{10, 0.001}, {1000, 0.3}, {12, 0.01}, {11, 0.02}} {
		before := o.lens()
		o.opTimes = append(o.opTimes, []float64{p.op})
		o.rates = append(o.rates, 1/p.op)
		o.passSetup = append(o.passSetup, p.op)
		o.heapPeaks = append(o.heapPeaks, 5)
		o.plainPasses = append(o.plainPasses, passSpan{before, o.lens(), p.steal})
	}
	got, samples := o.endToEnd()
	if got["op_p50_ms"] != 11 || got["op_tail_ms"] != 12 || got["setup_s"] != 11 || got["ops_per_s"] != 1.0/11 {
		t.Errorf("stolen pass moved the figures: %v", got)
	}
	if samples["op_tail_ms"] != 3 || samples["peak_heap_mb"] != 4 {
		t.Errorf("samples %v, want 3 kept timings and 4 heap peaks", samples)
	}

	for i := range o.plainPasses {
		o.plainPasses[i].steal += 0.5
	}
	if got, _ := o.endToEnd(); got["op_p50_ms"] != 11 || got["op_tail_ms"] != 12 {
		t.Errorf("under steal throughout, figures %v, want the least-stolen half's", got)
	}
}
