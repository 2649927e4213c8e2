// Command perfbench is the repository's wall-clock benchmark. It drives
// the public functions of the syntax, concretize, core, build, store,
// buildcache, splice, lifecycle, and service packages in one process and
// measures, from outside the program, what three kinds of users wait for:
//
//	concretize — a developer running `spack spec` over the Fig. 8
//	             repository and the ARES matrix;
//	rollout    — a site admin building the 36-config ARES matrix from
//	             source, publishing it to a signed buildcache, installing
//	             it elsewhere from binaries, splicing, and collecting;
//	daemon     — a site daemon answering two closed-loop clients.
//
// Usage:
//
//	perfbench --workload <concretize|rollout|daemon> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1. The line before it is a
// report naming every figure with its unit and sample count, plus the
// machine it ran on. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// settings is one invocation's settings.
type settings struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// budget is how long the measured passes may run.
func (c settings) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// namedMetric is one figure of the report line, under the name the
// workload's documentation gives it.
type namedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// oneTime is the run's one-time set-up (see oneTimeSetup); passSetup
	// holds each pass's own set-up (fresh sites, concretizers, daemons),
	// in seconds.
	oneTime   time.Duration
	passSetup []float64
	// Each plain pass adds its main ops' latencies in ms to opTimes, its
	// throughput to rates, and its heap peak to heapPeaks (runPasses
	// does that one). tailQ is the workload's tail percentile.
	opTimes [][]float64
	rates   []float64
	// p50Times, when set, replaces opTimes for op_p50_ms (the daemon's
	// median is its concretize requests').
	p50Times  [][]float64
	heapPeaks []float64
	tailQ     float64
	// plainPasses marks which entries of the slices above each plain pass
	// added, with the host's CPU steal while it ran; runPasses fills it.
	plainPasses []passSpan
	// aliases name op_p50_ms, op_tail_ms, and ops_per_s in the report
	// the way the workload's documentation does.
	aliases [3]string
	// layers holds the traced passes' per-layer values.
	layers map[string]float64
	// named is the report line's figures, by their workload-specific
	// names; info carries facts about the outputs (digests, counts).
	named  map[string]namedMetric
	info   map[string]any
	passes int
	errs   []string
}

func newOutcome(tailQ float64, aliases [3]string) *outcome {
	return &outcome{
		tailQ:   tailQ,
		aliases: aliases,
		layers:  map[string]float64{},
		named:   map[string]namedMetric{},
		info:    map[string]any{},
	}
}

// fail counts one op that errored or failed an output check.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n ops that failed one output check together.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// name records a report figure.
func (o *outcome) name(n string, v float64, unit string, samples int) {
	o.named[n] = namedMetric{Value: v, Unit: unit, Samples: samples}
}

// figureLens is how many entries each per-pass slice of an outcome holds.
type figureLens struct{ ops, p50, rates, setup int }

func (o *outcome) lens() figureLens {
	return figureLens{len(o.opTimes), len(o.p50Times), len(o.rates), len(o.passSetup)}
}

// passSpan is one plain pass: the entries it added to the outcome's
// per-pass slices, and the share of the host's CPU ticks the hypervisor
// gave to other guests while it ran.
type passSpan struct {
	from, to figureLens
	steal    float64
}

// stealLimit is the host CPU steal share above which a plain pass is left
// out of the end-to-end figures: it was slowed from outside the program.
const stealLimit = 0.02

// kept is the plain passes the end-to-end figures use: those with steal at
// most stealLimit or, when that leaves fewer than half of them, the
// least-stolen half.
func (o *outcome) kept() []passSpan {
	var out []passSpan
	for _, s := range o.plainPasses {
		if s.steal <= stealLimit {
			out = append(out, s)
		}
	}
	if half := (len(o.plainPasses) + 1) / 2; len(out) < half {
		out = append(out[:0], o.plainPasses...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].steal < out[j].steal })
		out = out[:half]
	}
	return out
}

// endToEnd computes the end-to-end metrics, and the sample count behind
// each. The median and the tail pool the passes' op samples, so a run with
// few passes (the rollout has about four) still has enough of them; the
// throughput and the heap peak are medians of each pass's own figure.
// setup_s is the one-time set-up plus the median per-pass set-up, so work
// moved into either shows. The timings come from the kept passes; the heap
// peak, which steal does not slow, from every plain pass.
func (o *outcome) endToEnd() (values map[string]float64, samples map[string]int) {
	var p50s, pooled, rates, setup []float64
	for _, s := range o.kept() {
		ops := o.opTimes[s.from.ops:s.to.ops]
		medianOf := ops
		if o.p50Times != nil {
			medianOf = o.p50Times[s.from.p50:s.to.p50]
		}
		for _, xs := range ops {
			pooled = append(pooled, xs...)
		}
		for _, xs := range medianOf {
			p50s = append(p50s, xs...)
		}
		rates = append(rates, o.rates[s.from.rates:s.to.rates]...)
		setup = append(setup, o.passSetup[s.from.setup:s.to.setup]...)
	}
	heap := o.heapPeaks
	values = map[string]float64{
		"setup_s":      o.oneTime.Seconds() + median(setup),
		"peak_heap_mb": median(heap),
		"op_p50_ms":    median(p50s),
		"op_tail_ms":   quantile(pooled, o.tailQ),
		"ops_per_s":    median(rates),
	}
	samples = map[string]int{
		"setup_s":      setupRepeats + len(setup),
		"peak_heap_mb": len(heap),
		"op_p50_ms":    len(p50s),
		"op_tail_ms":   len(pooled),
		"ops_per_s":    len(rates),
	}
	return values, samples
}

// setupRepeats is how many times a run builds its one-time fixture.
const setupRepeats = 3

// oneTimeSetup builds a run's one-time fixture setupRepeats times and
// records the median time as the run's one-time set-up, so one slow start
// moves setup_s little. Each build starts from a collected heap, with the
// previous build's fixture already garbage; the run uses the last one.
func oneTimeSetup[T any](o *outcome, build func() (T, error)) (T, error) {
	var f T
	times := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		var zero T
		f = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = build(); err != nil {
			return f, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	o.oneTime = time.Duration(median(times))
	return f, nil
}

// passKind says what a pass's timings are for.
type passKind int

const (
	// warmup is pass 0 of every run: its outputs are checked, but its
	// timings are dropped, because it pays for the heap's first growth.
	warmup passKind = iota
	// plain passes give the end-to-end metrics.
	plain
	// traced passes run with the seam wrappers and give the per-layer
	// metrics. A traced run alternates them with plain passes, so the
	// tracing overhead is measured within one process.
	traced
)

// runPasses runs fn for a warm-up pass and then measured passes until the
// budget is spent, with at least one measured pass of each kind the run
// reports, and records each plain pass's heap peak and CPU steal.
func runPasses(c settings, o *outcome, fn func(pass int, kind passKind) error) error {
	heap := startHeapSampler()
	defer heap.finish()
	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		o.info["host_cpu_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	}()
	minPasses := 2
	if c.trace {
		minPasses = 3
	}
	start := time.Now()
	for o.passes = 0; o.passes < minPasses || time.Since(start) < c.budget(); o.passes++ {
		kind := plain
		switch {
		case o.passes == 0:
			kind = warmup
		case c.trace && o.passes%2 == 1:
			kind = traced
		}
		heap.reset()
		before := o.lens()
		steal0, total0 := cpuTicks()
		if err := fn(o.passes, kind); err != nil {
			return err
		}
		if kind == plain {
			o.heapPeaks = append(o.heapPeaks, heap.peakMB())
			steal1, total1 := cpuTicks()
			steal := ratio(float64(steal1-steal0), float64(total1-total0))
			o.plainPasses = append(o.plainPasses, passSpan{before, o.lens(), steal})
		}
	}
	return nil
}

// heapSampler tracks the peak of the live heap: the bytes the last
// garbage collection found reachable, sampled every 2ms. Unlike the heap
// in use, it does not depend on how far allocation ran ahead of the
// collector.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func readHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// observe folds the current heap size into the peak.
func (h *heapSampler) observe() {
	v := readHeap()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// reset starts a new peak from the current heap size.
func (h *heapSampler) reset() { h.peak.Store(readHeap()) }

// peakMB is the peak since the last reset, in MB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// finish stops the sampler and waits for it to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// cpuTicks reads the host's CPU time counters from /proc/stat: the ticks
// the hypervisor gave to other guests while ours wanted to run (steal),
// and all ticks. A run with a high steal share was slowed from outside;
// both are 0 where /proc/stat is missing.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] {
		n, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as 0
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuModel reads the processor name for the report.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(settings) (*outcome, error){
	"concretize": runConcretize,
	"rollout":    runRollout,
	"daemon":     runDaemon,
}

func parseFlags(args []string) (settings, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c settings
	var trace int
	fs.StringVar(&c.workload, "workload", "", "concretize, rollout, or daemon")
	fs.Int64Var(&c.seed, "seed", 2015, "workload seed (2015 reproduces the paper's Fig. 8 repository)")
	fs.IntVar(&c.seconds, "seconds", 10, "how long the measured passes run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (want concretize, rollout, or daemon)", c.workload)
	}
	if c.seconds < 1 || (trace != 0 && trace != 1) {
		return c, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	o, err := workloads[c.workload](c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}

	e2e, samples := o.endToEnd()
	o.info["plain_passes"] = len(o.plainPasses)
	o.info["plain_passes_kept"] = len(o.kept())
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if c.trace {
		o.layers["bench.ops"] = float64(o.attempted)
		o.layers["bench.failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	o.name(o.aliases[0], e2e["op_p50_ms"], "ms", samples["op_p50_ms"])
	o.name(o.aliases[1], e2e["op_tail_ms"], "ms", samples["op_tail_ms"])
	o.name(o.aliases[2], e2e["ops_per_s"], "1/s", samples["ops_per_s"])
	o.name("setup_s", e2e["setup_s"], "s", samples["setup_s"])
	o.name("failed_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio", o.attempted)
	o.name("peak_heap_mb", e2e["peak_heap_mb"], "MB", samples["peak_heap_mb"])

	report := map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"passes":     o.passes,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"metrics":    o.named,
		"outputs":    o.info,
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"report": report}) // a bufio.Writer reports errors at Flush
	_ = enc.Encode(res)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
