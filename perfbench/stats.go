package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is the middle of xs, or the mean of the two middle values when
// xs has an even count (0 when xs is empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clock counts calls into one layer and the wall time they took. It is
// safe for concurrent use: the builder and the daemon call layers from
// several goroutines.
type clock struct {
	n  atomic.Int64
	ns atomic.Int64
}

// since records one call that started at t0.
func (c *clock) since(t0 time.Time) {
	c.n.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

func (c *clock) count() float64   { return float64(c.n.Load()) }
func (c *clock) totalMS() float64 { return ms(time.Duration(c.ns.Load())) }

// dist keeps every sample of one timing, for percentiles. It is safe for
// concurrent use.
type dist struct {
	mu sync.Mutex
	xs []float64
}

func (d *dist) add(v float64) {
	d.mu.Lock()
	d.xs = append(d.xs, v)
	d.mu.Unlock()
}

// sinceMS records the milliseconds elapsed since t0.
func (d *dist) sinceMS(t0 time.Time) { d.add(ms(time.Since(t0))) }

func (d *dist) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.xs...)
}

func (d *dist) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.xs)
}

func (d *dist) q(q float64) float64 { return quantile(d.values(), q) }
