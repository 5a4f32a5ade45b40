package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
	"snnfi/internal/xfer"
)

// Experiment fixes the data, network configuration and random seeds for
// a campaign, so every attack configuration trains an identical network
// on identical spike trains and differs only in the injected fault —
// the paper's protocol (train under attack, report accuracy relative to
// the attack-free baseline).
//
// Sweeps execute on a worker pool (internal/runner): each sweep cell is
// an independent job, results are collected in cell order, and a
// content-addressed cache keyed by (experiment fingerprint, the
// network the cell trains) skips retraining for repeated
// configurations — including differently named plans with the same
// effect, such as a 0% glitch and the attack-free baseline. The
// images are encoded into spike trains once, when the first cell
// trains, and every cell reads those trains. Data fields must be
// fixed before the first Run/Baseline/sweep call; the runner knobs
// (Workers, OnProgress, Sinks) may be adjusted between sweeps.
type Experiment struct {
	Images  []mnist.Image
	Cfg     snn.DiehlCookConfig
	EncSeed int64

	// Workers sizes the total worker budget: the sweep cell pool, with
	// each in-flight cell's intra-cell assignment pass receiving an
	// equal share of the remaining width (a single-cell campaign runs
	// its read-only pass at full width; a wide campaign runs cells at
	// width 1 each). ≤0 uses all CPUs (runtime.GOMAXPROCS). Results
	// are identical at every width.
	Workers int
	// OnProgress, when non-nil, observes each completed sweep cell.
	OnProgress func(runner.Progress)
	// Sinks receive one record per sweep point, streamed in sweep
	// order regardless of worker count.
	Sinks []runner.Sink
	// Cache memoizes trained results by content address so repeated
	// configurations (the shared baseline, re-run sweeps) skip
	// retraining. NewExperiment installs an in-memory cache;
	// campaigns that must survive the process compose a
	// runner.DiskCache under it (runner.NewTiered), which lets a
	// fresh process resume with only the missing cells retrained.
	// Experiments over the same data may share a cache safely because
	// keys cover the full experiment fingerprint.
	Cache runner.Cache[*Result]
	// Obs, when non-nil, receives campaign telemetry: the sweep pool's
	// "core.cells.*" metrics, each cell's training spans ("snn.stdp",
	// "snn.assign") and the intra-cell evaluation pool's "snn.eval.*".
	// Purely observational — results and streamed records are
	// byte-identical with or without a registry (see report_test.go).
	Obs *obs.Registry

	baseMu  sync.Mutex
	baseRes *Result

	fpOnce sync.Once
	fp     string

	spikesOnce sync.Once
	spikes     *snn.Corpus

	trains atomic.Int64
}

// NewExperiment prepares a campaign over n digit images. dataDir may
// point at a real MNIST directory; the synthetic corpus is used
// otherwise (see mnist.Load).
func NewExperiment(dataDir string, n int, cfg snn.DiehlCookConfig) (*Experiment, error) {
	images, err := mnist.Load(dataDir, n, 7)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Images:  images,
		Cfg:     cfg,
		EncSeed: 42,
		Cache:   runner.NewMemoryCache[*Result](),
	}, nil
}

// Result is one attack configuration's outcome. Results are stored
// under the key of the network they trained, which plans with equal
// effects share, so a stored Result carries no Plan: every method
// that returns one hands out a copy naming the caller's own plan, and
// stored Results are never mutated.
type Result struct {
	Plan        *FaultPlan
	Accuracy    float64
	Baseline    float64
	RelChangePc float64 // 100·(acc−base)/base, the paper's reported metric
	TotalSpikes float64
}

// fingerprint content-addresses the experiment: the image corpus, the
// network configuration, the encoder seed and the training-protocol
// version (snn.ProtocolVersion, so caches written under older
// semantics miss rather than serve pre-engine values). Everything a
// trained result depends on besides the fault plan's effect.
func (e *Experiment) fingerprint() string {
	e.fpOnce.Do(func() {
		e.fp = runner.KeyOf("experiment", snn.ProtocolVersion, e.Cfg, e.EncSeed, len(e.Images), mnist.Digest(e.Images))
	})
	return e.fp
}

// planKey is the content address of the network a plan trains: the
// experiment fingerprint and the plan's effect, so plans that differ
// only in name, or in faults that change nothing, share one cell.
func (e *Experiment) planKey(plan *FaultPlan) (string, error) {
	eff, err := plan.effect(e.Cfg.NExc, e.Cfg.NInh)
	if err != nil {
		return "", err
	}
	return runner.KeyOf(e.fingerprint(), "plan-effect", eff.key()), nil
}

// baselineKey is the content address of the attack-free network.
func (e *Experiment) baselineKey() string {
	key, _ := e.planKey(nil) // the nil plan's nominal effect cannot fail
	return key
}

// corpus returns the experiment's spike trains, encoding them on first
// use: image i from ImageSeed(EncSeed, i) with the encoder's defaults,
// for Cfg.Steps steps. Lazy, so a campaign served entirely from the
// cache encodes nothing.
func (e *Experiment) corpus() *snn.Corpus {
	e.spikesOnce.Do(func() {
		e.spikes = snn.EncodeCorpus(e.Images, encoding.NewPoissonEncoder(e.EncSeed), e.Cfg.Steps)
	})
	return e.spikes
}

// train trains one fresh network under plan (nil = attack-free) and
// returns its raw score. Safe for concurrent use: every call builds
// its own network and reads the shared, immutable corpus, and the
// cell's read-only assignment pass runs on the intra-cell evaluation
// pool (snn.CountsParallel) at the given width — the full Workers for
// stand-alone runs, a campaign-divided share for sweep cells (see
// runCampaign), so cell-level and intra-cell parallelism compose
// instead of multiplying.
func (e *Experiment) train(plan *FaultPlan, evalWorkers int) (*snn.TrainResult, error) {
	e.trains.Add(1)
	n, err := snn.NewDiehlCook(e.Cfg)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		revert, err := plan.Apply(n)
		if err != nil {
			return nil, err
		}
		defer revert()
	}
	return snn.TrainWith(n, e.corpus(), snn.TrainOptions{Workers: evalWorkers, Obs: e.Obs})
}

// TrainCount reports how many networks the experiment has trained so
// far — the unit of work the result cache exists to avoid.
func (e *Experiment) TrainCount() int64 { return e.trains.Load() }

// Run trains a fresh network under the given plan (nil for the
// attack-free baseline) and scores it against the baseline. Results
// are served from the cache when a plan with the same effect was
// already trained.
func (e *Experiment) Run(plan *FaultPlan) (*Result, error) {
	key, err := e.planKey(plan)
	if err != nil {
		return nil, err
	}
	r, ok := e.Cache.Get(key)
	if !ok {
		if r, err = e.compute(campaignJob{plan: plan}, key, e.Workers); err != nil {
			return nil, err
		}
		e.Cache.Put(key, r)
	}
	return withPlan(r, plan), nil
}

// withPlan returns a copy of a stored result naming plan.
func withPlan(r *Result, plan *FaultPlan) *Result {
	c := *r
	c.Plan = plan
	return &c
}

// compute trains and scores the cell at key without consulting the
// cache — the caller has already missed it. Sweep jobs call it
// directly: the campaign pool owns the single Get/Put for them, so a
// cell is looked up and stored exactly once per execution. A plan
// cell whose effect is nominal is the memoized baseline.
func (e *Experiment) compute(c campaignJob, key string, evalWorkers int) (*Result, error) {
	if key == e.baselineKey() {
		return e.baselineResult()
	}
	var res *snn.TrainResult
	var err error
	if c.train != nil {
		// An extension cell, whose corruption is not a FaultPlan, still
		// counts toward TrainCount.
		e.trains.Add(1)
		res, err = c.train(evalWorkers)
	} else {
		res, err = e.train(c.plan, evalWorkers)
	}
	if err != nil {
		return nil, err
	}
	return e.score(res)
}

// score relates one trained run to the attack-free baseline.
func (e *Experiment) score(res *snn.TrainResult) (*Result, error) {
	base, err := e.Baseline()
	if err != nil {
		return nil, err
	}
	r := &Result{
		Accuracy:    res.Accuracy,
		Baseline:    base,
		TotalSpikes: res.TotalSpikes,
	}
	if base > 0 {
		r.RelChangePc = 100 * (res.Accuracy - base) / base
	}
	return r, nil
}

// Baseline returns (computing once) the attack-free accuracy.
func (e *Experiment) Baseline() (float64, error) {
	r, err := e.baselineResult()
	if err != nil {
		return 0, err
	}
	return r.Accuracy, nil
}

// baselineResult memoizes the attack-free run. The lock is held across
// training so concurrent sweep workers wait for one computation
// instead of racing to retrain.
func (e *Experiment) baselineResult() (*Result, error) {
	e.baseMu.Lock()
	defer e.baseMu.Unlock()
	if e.baseRes != nil {
		return e.baseRes, nil
	}
	key := e.baselineKey()
	if r, ok := e.Cache.Get(key); ok {
		e.baseRes = r
		return r, nil
	}
	// The baseline trains alone (runCampaign computes it before fanning
	// out), so its assignment pass gets the full pool width.
	res, err := e.train(nil, e.Workers)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Accuracy:    res.Accuracy,
		Baseline:    res.Accuracy,
		TotalSpikes: res.TotalSpikes,
	}
	e.Cache.Put(key, r)
	e.baseRes = r
	return r, nil
}

// SweepPoint is one cell of a campaign sweep.
type SweepPoint struct {
	ScalePc    float64 // threshold/theta change in percent (−20 … +20)
	FractionPc float64 // portion of the layer affected in percent
	VDD        float64 // supply voltage (Attack 5 sweeps)
	QuantilePc float64 // mismatch quantile (variation sweeps; 0 = nominal corner)
	Defense    string  // hardening applied to the cell ("" = undefended)
	Detected   bool    // dummy-neuron detector verdict for the cell's attack
	Result     *Result
}

// campaignJob is one sweep cell before execution: the cell's
// coordinates, the fault plan built for them, and the description used
// in error wrapping. The encoder seed is deliberately NOT part of the
// cell — the paper's protocol trains every configuration on identical
// spike trains, so all cells share the experiment's EncSeed (a
// campaign needing per-cell randomness would derive child seeds with
// runner.DeriveSeed instead).
//
// Plan cells leave keyOverride and train nil: the cell is addressed by
// its plan's effect and trained by applying the plan. Extension cells
// (weight and learning-rate faults, whose corruption is not
// expressible as a FaultPlan) set both — plan then only names the
// configuration in results — so they run, cache, and stream exactly
// like plan cells.
type campaignJob struct {
	point SweepPoint
	plan  *FaultPlan
	desc  string

	keyOverride string
	train       func(evalWorkers int) (*snn.TrainResult, error)
}

// key is the cell's content address.
func (c campaignJob) key(e *Experiment) (string, error) {
	if c.keyOverride != "" {
		return c.keyOverride, nil
	}
	key, err := e.planKey(c.plan)
	if err != nil {
		return "", fmt.Errorf("core: %s: %w", c.desc, err)
	}
	return key, nil
}

// cellKeys returns every cell's content address, in cell order.
func (e *Experiment) cellKeys(cells []campaignJob) ([]string, error) {
	keys := make([]string, len(cells))
	for i, c := range cells {
		key, err := c.key(e)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// campaignMeta shapes the streamed records of one campaign: its sweep
// label, whether cells carry grid coordinates (ad-hoc plan lists do
// not, and zeroes would misreport them), and whether the campaign is a
// scenario matrix whose records carry the defense column and detector
// verdict.
type campaignMeta struct {
	name      string
	coords    bool
	matrix    bool
	variation bool
}

// gridMaskSeed fixes which neurons a partial-layer glitch hits, shared
// across all grid cells (and cmd/snn-attack) so fractions nest.
const gridMaskSeed = 99

// runCampaign executes the cells on the worker pool, collecting
// results in cell order, streaming one record per point to Sinks, and
// reporting completions to OnProgress. The output is byte-identical to
// serial execution at any worker count.
func (e *Experiment) runCampaign(meta campaignMeta, cells []campaignJob) ([]SweepPoint, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	keys, err := e.cellKeys(cells)
	if err != nil {
		return nil, err
	}
	// Train the shared baseline before fanning out: every cell scores
	// against it, and computing it up front keeps workers from queueing
	// on the baseline lock (and keeps it trained exactly once).
	if _, err := e.Baseline(); err != nil {
		return nil, err
	}
	// Split the pool between the two levels of parallelism: with C
	// cells in flight, each cell's read-only assignment pass gets
	// width/C evaluation workers, so total presentation goroutines stay
	// ≈ Workers instead of multiplying to Workers². A single-cell
	// campaign therefore gets the whole pool inside the cell — the
	// intra-cell engine's motivating case.
	cellWidth := e.Workers
	if cellWidth <= 0 {
		cellWidth = runtime.GOMAXPROCS(0)
	}
	evalWorkers := cellWidth / min(cellWidth, len(cells))
	if evalWorkers < 1 {
		evalWorkers = 1
	}
	jobs := make([]runner.Job[*Result], len(cells))
	for i := range cells {
		c, key := cells[i], keys[i]
		jobs[i] = runner.Job[*Result]{
			Label: c.desc,
			Key:   key,
			Run: func() (*Result, error) {
				// The pool already missed the cache for this key, so
				// compute without a second lookup.
				r, err := e.compute(c, key, evalWorkers)
				if err != nil {
					return nil, fmt.Errorf("core: %s: %w", c.desc, err)
				}
				return r, nil
			},
		}
	}
	pool := &runner.Pool[*Result]{
		Workers:    e.Workers,
		Cache:      e.Cache,
		OnProgress: e.OnProgress,
		Obs:        e.Obs,
		Name:       "core.cells",
	}
	if len(e.Sinks) > 0 {
		pool.OnResult = func(i int, r *Result, _ bool) error {
			rec := sweepRecord(meta, cells[i].point, cells[i].plan, r)
			for _, s := range e.Sinks {
				if err := s.Write(rec); err != nil {
					return err
				}
			}
			return nil
		}
	}
	results, err := pool.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(cells))
	for i, r := range results {
		out[i] = cells[i].point
		out[i].Result = withPlan(r, cells[i].plan)
	}
	return out, nil
}

// sweepRecord renders one sweep point of the cell with the given plan
// for the streaming sinks. The coordinate fields are included only for
// real sweeps — ad-hoc plan lists have no grid coordinates, and zeroes
// would misreport them — and the defense/detector fields only for
// scenario matrices, so plain sweeps keep their established record
// schema.
func sweepRecord(meta campaignMeta, p SweepPoint, plan *FaultPlan, r *Result) runner.Record {
	planName := ""
	if plan != nil {
		planName = plan.Name
	}
	rec := runner.Record{
		{Name: "sweep", Value: meta.name},
		{Name: "plan", Value: planName},
	}
	if meta.matrix {
		rec = append(rec, runner.Field{Name: "defense", Value: p.Defense})
	}
	if meta.coords {
		rec = append(rec,
			runner.Field{Name: "scale_pc", Value: p.ScalePc},
			runner.Field{Name: "fraction_pc", Value: p.FractionPc},
			runner.Field{Name: "vdd_v", Value: p.VDD},
		)
	}
	if meta.variation {
		rec = append(rec, runner.Field{Name: "quantile_pc", Value: p.QuantilePc})
	}
	rec = append(rec,
		runner.Field{Name: "accuracy", Value: r.Accuracy},
		runner.Field{Name: "baseline", Value: r.Baseline},
		runner.Field{Name: "rel_change_pc", Value: r.RelChangePc},
		runner.Field{Name: "total_spikes", Value: r.TotalSpikes},
	)
	if meta.matrix {
		rec = append(rec, runner.Field{Name: "detected", Value: p.Detected})
	}
	return rec
}

// RunPlans evaluates several fault plans through the worker pool and
// returns one result per plan, in input order. A nil plan stands for
// the attack-free baseline, as in Run.
func (e *Experiment) RunPlans(plans []*FaultPlan) ([]*Result, error) {
	pts, err := e.RunScenario(&Scenario{Name: "plans", Plans: plans})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(pts))
	for i, p := range pts {
		out[i] = p.Result
	}
	return out, nil
}

// Attack1Sweep reproduces Fig. 7b: classification accuracy versus theta
// (per-input-spike membrane charge) change.
func (e *Experiment) Attack1Sweep(changesPc []float64) ([]SweepPoint, error) {
	return e.RunScenario(&Scenario{
		Name:   "attack1-theta",
		Attack: Attack1,
		Axes:   Axes{ChangesPc: changesPc},
	})
}

// LayerGrid reproduces Figs. 8a/8b: accuracy over threshold change ×
// fraction-of-layer for one layer (Excitatory → Attack 2, Inhibitory →
// Attack 3).
func (e *Experiment) LayerGrid(layer Layer, changesPc, fractionsPc []float64) ([]SweepPoint, error) {
	attack := Attack2
	if layer == Inhibitory {
		attack = Attack3
	} else if layer != Excitatory {
		return nil, fmt.Errorf("core: layer grid needs a neuron layer, got %v", layer)
	}
	return e.RunScenario(&Scenario{
		Name:   fmt.Sprintf("layer-grid-%v", layer),
		Attack: attack,
		Axes:   Axes{ChangesPc: changesPc, FractionsPc: fractionsPc},
	})
}

// Attack4Sweep reproduces Fig. 8c: accuracy versus threshold change
// with both layers fully affected.
func (e *Experiment) Attack4Sweep(changesPc []float64) ([]SweepPoint, error) {
	return e.RunScenario(&Scenario{
		Name:   "attack4-both-layers",
		Attack: Attack4,
		Axes:   Axes{ChangesPc: changesPc},
	})
}

// Attack5Sweep reproduces Fig. 9a: accuracy versus VDD for the whole
// shared-supply system.
func (e *Experiment) Attack5Sweep(vdds []float64, kind xfer.NeuronKind) ([]SweepPoint, error) {
	return e.RunScenario(&Scenario{
		Name:   "attack5-vdd",
		Attack: Attack5,
		Axes:   Axes{VDDs: vdds, Kind: kind},
	})
}

// WorstCase returns the sweep point with the most negative relative
// accuracy change. ok is false when points is empty (or no point
// carries a result), so callers never dereference a missing result.
func WorstCase(points []SweepPoint) (worst SweepPoint, ok bool) {
	for _, p := range points {
		if p.Result == nil {
			continue
		}
		if !ok || p.Result.RelChangePc < worst.Result.RelChangePc {
			worst, ok = p, true
		}
	}
	return worst, ok
}
