package neuron

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snnfi/internal/runner"
	"snnfi/internal/spice"
)

// TestBisectionMatchesScan is the bisected prober's contract: across
// random Vth perturbations and supplies, ThresholdProbe.Threshold must
// return the bit-identical grid point the linear scan finds.
func TestBisectionMatchesScan(t *testing.T) {
	perSupply := 12
	if testing.Short() {
		perSupply = 4
	}
	rng := rand.New(rand.NewSource(7))
	probe := NewThresholdProbe()
	for _, vdd := range []float64{0.8, 0.9, 1.0, 1.1, 1.2} {
		for k := 0; k < perSupply; k++ {
			dp := rng.NormFloat64() * 0.03
			dn := rng.NormFloat64() * 0.03
			want, err := scanThreshold(vdd, dp, dn)
			if err != nil {
				t.Fatalf("scan vdd=%g dp=%g dn=%g: %v", vdd, dp, dn, err)
			}
			got, err := probe.Threshold(vdd, dp, dn)
			if err != nil {
				t.Fatalf("bisect vdd=%g dp=%g dn=%g: %v", vdd, dp, dn, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vdd=%g dp=%g dn=%g: bisected %v != scanned %v",
					vdd, dp, dn, got, want)
			}
		}
	}
}

// TestThresholdProbeReuse pins template reuse across supplies: one
// probe interleaving supplies must agree with fresh scans every time
// (the in-place patches may not leak state between samples).
func TestThresholdProbeReuse(t *testing.T) {
	probe := NewThresholdProbe()
	cases := []struct{ vdd, dp, dn float64 }{
		{1.0, 0, 0}, {0.8, 0.02, -0.01}, {1.0, -0.03, 0.03},
		{1.2, 0.01, 0.01}, {0.8, 0, 0}, {1.0, 0, 0},
	}
	for i, c := range cases {
		want, err := scanThreshold(c.vdd, c.dp, c.dn)
		if err != nil {
			t.Fatalf("case %d scan: %v", i, err)
		}
		got, err := probe.Threshold(c.vdd, c.dp, c.dn)
		if err != nil {
			t.Fatalf("case %d bisect: %v", i, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (vdd=%g dp=%g dn=%g): got %v want %v",
				i, c.vdd, c.dp, c.dn, got, want)
		}
	}
}

// mcTestSink records the streamed sample records so worker-invariance
// can compare sink order, not just the returned slice.
type mcTestSink struct{ lines []string }

func (s *mcTestSink) Write(rec runner.Record) error {
	s.lines = append(s.lines, fmt.Sprintf("%v", rec))
	return nil
}
func (s *mcTestSink) Close() error { return nil }

func mcRun(t *testing.T, mc MonteCarlo, workers int, cache runner.Cache[float64]) ([]float64, []string) {
	t.Helper()
	sink := &mcTestSink{}
	ch := &Characterizer{Workers: workers, Cache: cache, Sinks: []runner.Sink{sink}}
	samples, err := ch.MonteCarloThresholds(mc)
	if err != nil {
		t.Fatalf("MonteCarloThresholds(workers=%d): %v", workers, err)
	}
	return samples, sink.lines
}

// TestMonteCarloWorkerInvariance: the N-sample distribution — values
// and streamed sink order — must be byte-identical at 1 and 4 workers.
func TestMonteCarloWorkerInvariance(t *testing.T) {
	mc := NewMonteCarlo(256)
	if testing.Short() {
		mc.N = 24
	}
	s1, lines1 := mcRun(t, mc, 1, runner.NewMemoryCache[float64]())
	s4, lines4 := mcRun(t, mc, 4, runner.NewMemoryCache[float64]())
	if len(s1) != mc.N || len(s4) != mc.N {
		t.Fatalf("sample counts %d / %d, want %d", len(s1), len(s4), mc.N)
	}
	for i := range s1 {
		if math.Float64bits(s1[i]) != math.Float64bits(s4[i]) {
			t.Fatalf("sample %d differs: workers=1 %v, workers=4 %v", i, s1[i], s4[i])
		}
	}
	if len(lines1) != len(lines4) {
		t.Fatalf("sink line counts %d / %d", len(lines1), len(lines4))
	}
	for i := range lines1 {
		if lines1[i] != lines4[i] {
			t.Fatalf("sink line %d differs:\n  workers=1: %s\n  workers=4: %s",
				i, lines1[i], lines4[i])
		}
	}
}

// TestMonteCarloColdWarmSolves: a warm rerun against the same cache
// must serve every sample without solving a single circuit (the
// spice.solves counter delta is zero) and return identical bytes.
func TestMonteCarloColdWarmSolves(t *testing.T) {
	mc := NewMonteCarlo(32)
	if testing.Short() {
		mc.N = 8
	}
	cache := runner.NewMemoryCache[float64]()
	cold, _ := mcRun(t, mc, 4, cache)

	before, _, _ := spice.SolverCounts()
	warm, _ := mcRun(t, mc, 4, cache)
	after, _, _ := spice.SolverCounts()

	if solves := after - before; solves != 0 {
		t.Fatalf("warm rerun solved %d circuits, want 0", solves)
	}
	for i := range cold {
		if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
			t.Fatalf("sample %d differs cold/warm: %v vs %v", i, cold[i], warm[i])
		}
	}
}

// TestMonteCarloSampleIndependence: any subset of samples is the same
// cell regardless of batch composition — sample i of an N-run equals
// sample i of an M-run (per-sample derived seeds, not one RNG stream).
func TestMonteCarloSampleIndependence(t *testing.T) {
	small := NewMonteCarlo(4)
	big := NewMonteCarlo(12)
	s, _ := mcRun(t, small, 2, runner.NewMemoryCache[float64]())
	b, _ := mcRun(t, big, 2, runner.NewMemoryCache[float64]())
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(b[i]) {
			t.Fatalf("sample %d differs across batch sizes: %v vs %v", i, s[i], b[i])
		}
	}
}

func TestQuantiles(t *testing.T) {
	samples := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ pc, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {-5, 1}, {110, 4},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.pc); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %v, want %v", c.pc, got, c.want)
		}
	}
	qs := Quantiles(samples, []float64{0, 50, 100})
	want := []float64{1, 2.5, 4}
	for i := range qs {
		if math.Abs(qs[i]-want[i]) > 1e-12 {
			t.Fatalf("Quantiles[%d] = %v, want %v", i, qs[i], want[i])
		}
	}
	if got := Quantile(nil, 50); got != 0 {
		t.Fatalf("Quantile(nil) = %v, want 0", got)
	}
}
