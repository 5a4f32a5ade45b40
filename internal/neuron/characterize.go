package neuron

import (
	"fmt"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

// Point is one characterization sample: an independent value (VDD,
// amplitude, W/L, ...) and the measured dependent value.
type Point struct {
	X, Y float64
}

// PercentChange returns 100·(y−yRef)/yRef.
func PercentChange(y, yRef float64) float64 { return 100 * (y - yRef) / yRef }

// Characterizer runs neuron characterization sweeps on the campaign
// worker pool (internal/runner). Every sweep point is an independent
// circuit build + simulation from a value-only recipe, so points run
// concurrently under the pool's determinism contract — output is
// identical at any worker width — and each point is content-addressed
// by its circuit recipe and measurement, so a cache-equipped
// Characterizer simulates a given circuit point at most once even
// across different figures (e.g. F5b and F9b both measure the stock
// driver sweep). Its two entry points are Measure, which runs a named
// recipe (see RecipeNames), and MonteCarloThresholds. The zero value
// uses all CPUs and no cache, so every call re-simulates.
type Characterizer struct {
	// Workers sizes the worker pool; ≤0 uses all CPUs.
	Workers int
	// Cache, when non-nil, memoizes measured values by recipe address.
	// Only the dependent value is cached — the independent value is a
	// sweep-axis coordinate, not a circuit property, and two sweeps can
	// reach the same recipe from different axes (sizing ratio ×1 at
	// VDD 1.0 is the nominal threshold circuit).
	Cache runner.Cache[float64]
	// OnProgress, when non-nil, observes each completed point.
	OnProgress func(runner.Progress)
	// Sinks receive one record per point, streamed in sweep order
	// regardless of worker count.
	Sinks []runner.Sink
	// Obs, when non-nil, receives the sweep pool's telemetry under
	// "neuron.sweep.*" (per-point run/wait histograms, job and hit
	// counters). Observation only; sweep output is unaffected.
	Obs *obs.Registry
}

// NewCharacterizer returns a pool-wide Characterizer with a fresh
// measurement cache.
func NewCharacterizer() *Characterizer {
	return &Characterizer{Cache: runner.NewMemoryCache[float64]()}
}

// charPoint is one sweep point before execution: the independent
// value, the content-address of (recipe, measurement), and the
// measurement itself.
type charPoint struct {
	x    float64
	key  string
	eval func() (float64, error)
}

// sweep runs the points as runner jobs, collecting results in sweep
// order and streaming one record per point to the sinks. The pool
// carries only the measured Y values; each sweep reattaches its own
// X axis, so cached measurements are reusable across sweeps whose axes
// differ.
func (ch *Characterizer) sweep(name string, pts []charPoint) ([]Point, error) {
	jobs := make([]runner.Job[float64], len(pts))
	for i, p := range pts {
		p := p
		jobs[i] = runner.Job[float64]{
			Label: fmt.Sprintf("%s @ %g", name, p.x),
			Key:   p.key,
			Run: func() (float64, error) {
				y, err := p.eval()
				if err != nil {
					return 0, fmt.Errorf("neuron: %s at %g: %w", name, p.x, err)
				}
				return y, nil
			},
		}
	}
	pool := &runner.Pool[float64]{
		Workers:    ch.Workers,
		Cache:      ch.Cache,
		OnProgress: ch.OnProgress,
		Obs:        ch.Obs,
		Name:       "neuron.sweep",
	}
	if len(ch.Sinks) > 0 {
		pool.OnResult = func(i int, y float64, _ bool) error {
			rec := PointRecord(name, Point{X: pts[i].x, Y: y})
			for _, s := range ch.Sinks {
				if err := s.Write(rec); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ys, err := pool.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(pts))
	for i, y := range ys {
		out[i] = Point{X: pts[i].x, Y: y}
	}
	return out, nil
}

// PointRecord renders one characterization point as the streamed sink
// record shape shared by every circuit-tier sweep.
func PointRecord(sweep string, p Point) runner.Record {
	return runner.Record{
		{Name: "sweep", Value: sweep},
		{Name: "x", Value: p.X},
		{Name: "y", Value: p.Y},
	}
}
