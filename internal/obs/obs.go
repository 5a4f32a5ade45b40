// Package obs is the campaign telemetry substrate: a dependency-free
// (stdlib-only) registry of named counters, gauges and streaming
// duration histograms, plus lightweight spans that time a phase into a
// histogram.
//
// Design constraints, in priority order:
//
//   - Observation-free. Nothing in this package influences what a
//     campaign computes: no randomness, no ordering, no shared state
//     the instrumented code reads back. Figure and sink bytes are
//     identical with telemetry on or off (test-enforced in
//     internal/core).
//   - Disabled means free. Every entry point is nil-safe — a nil
//     *Registry, *Counter, *Gauge or *Histogram accepts the full API
//     as a no-op — so instrumented code calls unconditionally and a
//     campaign without a registry pays one predictable branch, zero
//     allocations (see the allocation tests). Hot loops hoist the
//     instrument (reg.Histogram(...) once, h.Observe(...) per event)
//     instead of looking names up per event.
//   - Streaming. Histograms keep power-of-two duration buckets, not
//     samples: p50/p95/max come from the bucket counts, so a
//     million-cell campaign costs the same fixed few hundred bytes per
//     phase as a ten-cell one. Count, sum, min and max are exact;
//     quantiles are bucket-resolution estimates (within 2×, clamped to
//     the observed min/max).
//
// Metric names follow the tier.phase scheme ("snn.stdp",
// "core.cells.run", "cache.slow.hits"); see DESIGN.md "Telemetry".
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. The zero value
// is ready to use, and a nil *Counter accepts Add/Inc as a no-op, so
// instruments can be declared as struct fields and published into a
// Registry later (see Registry.RegisterCounter).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value (a utilization, a
// worker count). The zero value is ready; nil is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the bucket count of a Histogram: bucket i holds
// durations whose nanosecond count has bit length i, i.e. [2^(i-1),
// 2^i), so 64 buckets span sub-nanosecond to centuries.
const histBuckets = 64

// Histogram is a streaming duration histogram: exact count/sum/min/
// max plus power-of-two buckets for quantile estimates, all updated
// atomically so any number of workers may Observe concurrently
// without locks. The zero value is ready; nil is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid only when count > 0
	minInit atomic.Bool
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero (the
// clock went backwards; dropping them would skew counts).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	if !h.minInit.Load() && h.min.CompareAndSwap(0, ns) {
		h.minInit.Store(true)
	}
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns how many durations have been observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts: the geometric midpoint of the bucket where the cumulative
// count crosses q·total, clamped to the exact observed min and max.
// The estimate is within the 2× bucket resolution of the true value.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank >= total {
		// The top rank is the exact observed maximum — no need for a
		// bucket estimate.
		return time.Duration(h.max.Load())
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			est := bucketMid(i)
			if min := h.min.Load(); est < min {
				est = min
			}
			if max := h.max.Load(); est > max {
				est = max
			}
			return time.Duration(est)
		}
	}
	return time.Duration(h.max.Load())
}

// bucketMid is the geometric midpoint of bucket i's [2^(i-1), 2^i)
// nanosecond range.
func bucketMid(i int) int64 {
	if i <= 0 {
		return 0
	}
	lo := int64(1) << (i - 1)
	return lo + lo/2
}

// HistSummary is the exportable digest of one histogram, durations in
// milliseconds (the natural unit of campaign phases).
type HistSummary struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
	MinMs   float64 `json:"min_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	MaxMs   float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary digests the histogram's current state.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	n := h.count.Load()
	s := HistSummary{
		Count:   n,
		TotalMs: ms(time.Duration(h.sum.Load())),
		MinMs:   ms(time.Duration(h.min.Load())),
		P50Ms:   ms(h.Quantile(0.50)),
		P95Ms:   ms(h.Quantile(0.95)),
		MaxMs:   ms(time.Duration(h.max.Load())),
	}
	if n > 0 {
		s.MeanMs = s.TotalMs / float64(n)
	}
	return s
}

// Registry is a named collection of instruments. Lookups create on
// first use, so instrumented code never registers up front; the same
// name always returns the same instrument. A nil *Registry returns
// nil instruments, whose whole API no-ops — the disabled-telemetry
// path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterCounter publishes an existing counter under name, replacing
// any instrument previously there. Components that keep their own
// counters (the caches' hit/miss accounting behind Stats()) use this
// so the registry exports the very same atomics Stats() reads —
// registry values and Stats() can never disagree.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// RegisterHistogram publishes an existing histogram under name,
// replacing any instrument previously there — the histogram analogue
// of RegisterCounter, for components that keep their own duration
// accounting (the HTTP cache's round-trip histogram) and want the
// registry to export the very same buckets.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a registry, JSON-ready.
// encoding/json renders map keys sorted, so marshaling a snapshot is
// deterministic for a given set of values.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot exports every instrument's current value. Instruments
// still being written concurrently are read atomically one by one;
// the snapshot is not a single consistent cut, which is fine for
// end-of-run reporting (writers have quiesced) and close enough for
// live inspection.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSummary, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Summary()
		}
	}
	return s
}

// Timer is a started span: End records the elapsed time into the
// span's histogram. It is a value type — starting and ending a span
// allocates nothing.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Span starts a span named name (the tier.phase scheme):
//
//	defer obs.Span(reg, "snn.stdp").End()
//
// With a nil registry the span is inert and costs one branch.
func Span(r *Registry, name string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{h: r.Histogram(name), start: time.Now()}
}

// Span starts a span on an already-resolved histogram — the hoisted
// form for code that times many events against one phase.
func (h *Histogram) Span() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// End records the span's elapsed time. Ending an inert span is a
// no-op.
func (t Timer) End() {
	if t.h != nil {
		t.h.Observe(time.Since(t.start))
	}
}
