package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("a.u")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every instrument off a nil registry must accept its full API.
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := r.Gauge("x")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	h := r.Histogram("x")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read 0")
	}
	if s := h.Summary(); s.Count != 0 {
		t.Fatal("nil histogram summary must be zero")
	}
	r.RegisterCounter("x", &Counter{})
	Span(r, "x").End()
	h.Span().End()
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramExactFields(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{3 * time.Millisecond, 1 * time.Millisecond, 8 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Sum() != 12*time.Millisecond {
		t.Fatalf("sum = %v, want 12ms", h.Sum())
	}
	s := h.Summary()
	if s.MinMs != 1 || s.MaxMs != 8 {
		t.Fatalf("min/max = %g/%g, want 1/8", s.MinMs, s.MaxMs)
	}
	if s.MeanMs != 4 {
		t.Fatalf("mean = %g, want 4", s.MeanMs)
	}
}

func TestHistogramQuantileEstimates(t *testing.T) {
	var h Histogram
	// 100 observations at 1ms, 1 outlier at 1s: p50 must stay near 1ms
	// (within the 2× bucket resolution), max exact.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want within 2x of 1ms", p50)
	}
	if h.Quantile(1) != time.Second {
		t.Fatalf("p100 = %v, want exactly the max", h.Quantile(1))
	}
	if h.Quantile(0) < 500*time.Microsecond {
		t.Fatalf("p0 = %v, must clamp to observed min", h.Quantile(0))
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %g = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestSpanRecordsIntoHistogram(t *testing.T) {
	r := NewRegistry()
	sp := Span(r, "tier.phase")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	h := r.Histogram("tier.phase")
	if h.Count() != 1 {
		t.Fatalf("span did not record (count %d)", h.Count())
	}
	if h.Sum() < time.Millisecond {
		t.Fatalf("span recorded %v, want ≥1ms", h.Sum())
	}
}

func TestRegisterCounterSharesAtomics(t *testing.T) {
	// The cache-stats contract: a component-owned counter published
	// into the registry IS the registry's counter, so Stats() and the
	// exported snapshot can never disagree.
	r := NewRegistry()
	var own Counter
	r.RegisterCounter("cache.fast.hits", &own)
	own.Add(7)
	if got := r.Counter("cache.fast.hits").Value(); got != 7 {
		t.Fatalf("registry sees %d, owner wrote 7", got)
	}
	r.Counter("cache.fast.hits").Inc()
	if own.Value() != 8 {
		t.Fatalf("owner sees %d after registry increment, want 8", own.Value())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("u").Set(0.5)
	r.Histogram("h").Observe(time.Millisecond)
	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Counters["b"] != 2 {
		t.Fatalf("round-trip lost counters: %v", back.Counters)
	}
}

func TestConcurrentObserve(t *testing.T) {
	// Exercised under -race in CI: many workers hammer one registry.
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("h")
			c := r.Counter("c")
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%7) * time.Microsecond)
				c.Inc()
				if i%100 == 0 {
					r.Gauge("g").Set(float64(w))
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestDisabledTelemetryAllocationFree pins the "disabled means free"
// contract (the analogue of spice's TestSolveNewtonAllocationFree):
// with a nil registry, counters, gauges, histograms and spans must add
// zero allocations to whatever loop they instrument.
func TestDisabledTelemetryAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		h.Observe(time.Millisecond)
		Span(r, "x").End()
		h.Span().End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f objects per op, want 0", allocs)
	}
}

// TestEnabledInstrumentsAllocationFree pins the steady-state cost of
// live telemetry: once an instrument exists, observing into it
// allocates nothing either (creation allocates, use does not).
func TestEnabledInstrumentsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("x")
	r.Gauge("x") // pre-create so the lookup inside the loop is warm
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(time.Millisecond)
		h.Span().End()
		r.Gauge("x").Set(2)
		Span(r, "x").End()
	})
	if allocs != 0 {
		t.Fatalf("live telemetry allocated %.1f objects per op, want 0", allocs)
	}
}
