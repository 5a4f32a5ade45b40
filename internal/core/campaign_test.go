package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// tinyExperiment builds a small but non-degenerate campaign: big
// enough that parallel training has real work per cell, small enough
// that a handful of sweeps stays in test budget.
func tinyExperiment(t *testing.T, nImages int) *Experiment {
	t.Helper()
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	e, err := NewExperiment("", nImages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func samePoints(t *testing.T, workers int, got, want []SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ScalePc != w.ScalePc || g.FractionPc != w.FractionPc || g.VDD != w.VDD ||
			g.Defense != w.Defense || g.Detected != w.Detected {
			t.Fatalf("workers=%d: point %d coords %+v, want %+v", workers, i, g, w)
		}
		if *g.Result != *w.Result || g.Baseline != w.Baseline || g.RelChangePc != w.RelChangePc {
			t.Fatalf("workers=%d: point %d result %+v/%v/%v, want %+v/%v/%v", workers, i,
				*g.Result, g.Baseline, g.RelChangePc, *w.Result, w.Baseline, w.RelChangePc)
		}
		if (g.Plan == nil) != (w.Plan == nil) ||
			(g.Plan != nil && g.Plan.Name != w.Plan.Name) {
			t.Fatalf("workers=%d: point %d plan mismatch", workers, i)
		}
	}
}

// TestSweepDeterministicAcrossWorkers is the runner's core contract:
// the same campaign at 1, 4 and 8 workers yields identical SweepPoint
// sequences and byte-identical streamed JSONL.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	e := tinyExperiment(t, 60)
	changes := []float64{-20, 10}
	fractions := []float64{50, 100}

	var ref []SweepPoint
	var refJSONL []byte
	for _, workers := range []int{1, 4, 8} {
		// Fresh cache each round so every width really executes the
		// cells (a warm cache would trivially return equal results).
		e.Cache = runner.NewMemoryCache[*Result]()
		e.Workers = workers
		var buf bytes.Buffer
		sink := runner.NewJSONLSink(&buf)
		e.Sinks = []runner.Sink{sink}

		pts, err := e.RunScenario(&Scenario{Attack: Attack3, Axes: Axes{ChangesPc: changes, FractionsPc: fractions}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref, refJSONL = pts, buf.Bytes()
			continue
		}
		samePoints(t, workers, pts, ref)
		if !bytes.Equal(buf.Bytes(), refJSONL) {
			t.Fatalf("workers=%d: streamed JSONL differs from serial:\n%s\nvs\n%s",
				workers, buf.Bytes(), refJSONL)
		}
	}
	if len(refJSONL) == 0 {
		t.Fatal("sink saw no records")
	}
}

// TestSweepBaselineTrainsOnce asserts the cache contract: across a
// whole sweep the shared attack-free baseline is trained exactly once,
// and re-running the sweep trains nothing at all.
func TestSweepBaselineTrainsOnce(t *testing.T) {
	e := tinyExperiment(t, 40)
	e.Workers = 4
	grid := &Scenario{Attack: Attack2, Axes: Axes{ChangesPc: []float64{-20, 20}, FractionsPc: []float64{50, 100}}}
	pts, err := e.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	wantTrains := int64(len(pts) + 1) // 4 cells + 1 baseline
	if got := e.TrainCount(); got != wantTrains {
		t.Fatalf("first sweep trained %d networks, want %d (cells + baseline once)", got, wantTrains)
	}
	again, err := e.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TrainCount(); got != wantTrains {
		t.Fatalf("repeated sweep trained %d more networks, want 0", got-wantTrains)
	}
	samePoints(t, 4, again, pts)
	if hits, _ := e.Cache.(*runner.MemoryCache[*Result]).Stats(); hits < int64(len(pts)) {
		t.Fatalf("cache hits = %d, want ≥%d", hits, len(pts))
	}
}

// TestRunPlansOrdered routes an ad-hoc plan list through the pool and
// keeps input order.
func TestRunPlansOrdered(t *testing.T) {
	e := tinyExperiment(t, 40)
	e.Workers = 3
	plans := []*FaultPlan{
		NewAttack1(1.2),
		NewAttack3(0.8, 1, 1),
		NewAttack4(0.9),
	}
	pts, err := e.RunScenario(&Scenario{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(plans) {
		t.Fatalf("%d points for %d plans", len(pts), len(plans))
	}
	for i, p := range pts {
		if p.Plan.Name != plans[i].Name {
			t.Fatalf("point %d is %q, want %q", i, p.Plan.Name, plans[i].Name)
		}
	}
}

// TestRunIsCached: two Runs of one configuration train once.
func TestRunIsCached(t *testing.T) {
	e := tinyExperiment(t, 40)
	r1, err := e.Run(NewAttack4(0.8))
	if err != nil {
		t.Fatal(err)
	}
	before := e.TrainCount()
	r2, err := e.Run(NewAttack4(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if e.TrainCount() != before {
		t.Fatal("identical plan must be served from the cache")
	}
	if r1.Result.Accuracy != r2.Result.Accuracy || r1.RelChangePc != r2.RelChangePc {
		t.Fatal("cached result differs")
	}
	// A different configuration is a different content address.
	if _, err := e.Run(NewAttack4(0.9)); err != nil {
		t.Fatal(err)
	}
	if e.TrainCount() == before {
		t.Fatal("distinct plan must retrain")
	}
}

// TestLayerGridParallelSpeedup is the wall-clock acceptance bar: with
// ≥4 workers a layer-grid sweep runs ≥2× faster than serial while
// producing identical results. Training is CPU-bound, so the test
// needs real cores; on smaller machines the sleep-bound equivalent in
// internal/runner still enforces the pool's concurrency.
func TestLayerGridParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a CPU-bound speedup, have %d", runtime.GOMAXPROCS(0))
	}
	e := tinyExperiment(t, 80)
	grid := &Scenario{Attack: Attack3, Axes: Axes{ChangesPc: []float64{-20, -10, 10, 20}, FractionsPc: []float64{50, 100}}}

	e.Cache = runner.NewMemoryCache[*Result]()
	e.Workers = 1
	start := time.Now()
	serialPts, err := e.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)

	e.Cache = runner.NewMemoryCache[*Result]()
	e.Workers = 4
	start = time.Now()
	parallelPts, err := e.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)

	samePoints(t, 4, parallelPts, serialPts)
	if parallel > serial/2 {
		t.Fatalf("4 workers took %v, serial took %v — want ≥2× speedup", parallel, serial)
	}
}

// TestSecondCellReusesWeights: once one cell has run, the next cell of
// the same experiment takes the weight matrix the first released, so
// it allocates less than one weight matrix in all. The collector is off
// and one processor runs the cells, so the pool cannot drop or strand
// the matrix in between.
func TestSecondCellReusesWeights(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := tinyExperiment(t, 6)
	if _, err := e.compute((*FaultPlan)(nil), 1); err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Name: "il-0.9", Faults: []FaultSpec{{Layer: Inhibitory, Scale: 0.9, Fraction: 1}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.compute(plan, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	matrix := uint64(8 * e.Cfg.NInput * e.Cfg.NExc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= matrix {
		t.Fatalf("the second cell allocated %d B, a weight matrix is %d B", got, matrix)
	}
}
