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
// effect, such as a 0% glitch and the attack-free baseline. A cell
// stores only what its network scores; the attack-free baseline is a
// cell like any other, and every campaign runs it as its first job
// and scores the other cells against it when their points are
// assembled. The images are encoded into spike trains once, when the
// first cell trains, and every cell reads those trains. Data fields
// must be fixed before the first Run/Baseline/sweep call; the runner
// knobs (Workers, OnProgress, Sinks) may be adjusted between sweeps.
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
	// runner.DiskCache under it (runner.NewChain), which lets a
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

// Result is what one cell computes: the score of the network it
// trains. It is the value every cache tier stores, under the key of
// that network, which cells with equal effects share, so a stored
// Result names no plan and relates to no baseline; SweepPoint adds
// both. Stored Results are never mutated.
type Result struct {
	Accuracy    float64
	TotalSpikes float64
}

// cellSchema versions the layout of a stored Result. It is a
// fingerprint ingredient, so entries of another layout are never
// served: until this version a Result also stored its plan, its
// baseline and its relative change, and a binary of that era reading
// a new entry would report every relative change as 0.
const cellSchema = "cell-v2"

// fingerprint content-addresses the experiment: the image corpus, the
// network configuration, the encoder seed, the training-protocol
// version (snn.ProtocolVersion, so caches written under older
// semantics miss rather than serve pre-engine values) and the cell
// schema. Everything a trained result depends on besides the cell's
// corruption.
func (e *Experiment) fingerprint() string {
	e.fpOnce.Do(func() {
		e.fp = runner.KeyOf("experiment", snn.ProtocolVersion, cellSchema, e.Cfg, e.EncSeed, len(e.Images), mnist.Digest(e.Images))
	})
	return e.fp
}

// corruption is what a cell does to the network it trains: a
// *FaultPlan (nil for the attack-free network), a WeightFaultSpec or a
// LearningRateFaultSpec. Corruptions that train the same network share
// a key.
type corruption interface {
	// key is the content address of the trained network.
	key(e *Experiment) (string, error)
	// train trains n, a fresh network of the experiment's
	// configuration, under the corruption.
	train(e *Experiment, n *snn.DiehlCook, opts snn.TrainOptions) (*snn.TrainResult, error)
}

// key is the content address of the network a plan trains: the
// experiment fingerprint and the plan's effect, so plans that differ
// only in name, or in faults that change nothing, share one cell.
func (p *FaultPlan) key(e *Experiment) (string, error) {
	eff, err := p.effect(e.Cfg.NExc, e.Cfg.NInh)
	if err != nil {
		return "", err
	}
	return runner.KeyOf(e.fingerprint(), "plan-effect", eff.key()), nil
}

// train trains n with the plan applied (nil = attack-free). Every
// cell trains its own network and reads the shared, immutable corpus,
// so cells train concurrently.
func (p *FaultPlan) train(e *Experiment, n *snn.DiehlCook, opts snn.TrainOptions) (*snn.TrainResult, error) {
	if p != nil {
		revert, err := p.Apply(n)
		if err != nil {
			return nil, err
		}
		defer revert()
	}
	return snn.TrainWith(n, e.corpus(), opts)
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

// compute trains the cell's network without consulting the cache —
// the caller has already missed it — with its read-only assignment
// pass on evalWorkers evaluation workers (snn.CountsParallel): the
// full Workers for stand-alone lookups, a campaign-divided share for
// sweep cells (see evalWidth), so cell-level and intra-cell
// parallelism compose instead of multiplying.
func (e *Experiment) compute(c corruption, evalWorkers int) (*Result, error) {
	e.trains.Add(1)
	n, err := snn.NewDiehlCook(e.Cfg)
	if err != nil {
		return nil, err
	}
	defer n.Release()
	res, err := c.train(e, n, snn.TrainOptions{Workers: evalWorkers, Obs: e.Obs})
	if err != nil {
		return nil, err
	}
	return &Result{Accuracy: res.Accuracy, TotalSpikes: res.TotalSpikes}, nil
}

// TrainCount reports how many networks the experiment has trained so
// far — the unit of work the result cache exists to avoid.
func (e *Experiment) TrainCount() int64 { return e.trains.Load() }

// lookup returns the result of the cell c trains: from the cache, or
// computed at the full pool width and stored.
func (e *Experiment) lookup(c corruption) (*Result, error) {
	key, err := c.key(e)
	if err != nil {
		return nil, err
	}
	if r, ok := e.Cache.Get(key); ok {
		return r, nil
	}
	r, err := e.compute(c, e.Workers)
	if err != nil {
		return nil, err
	}
	e.Cache.Put(key, r)
	return r, nil
}

// Baseline returns the attack-free accuracy: the nil plan's cell,
// served from the cache once trained.
func (e *Experiment) Baseline() (float64, error) {
	r, err := e.lookup((*FaultPlan)(nil))
	if err != nil {
		return 0, err
	}
	return r.Accuracy, nil
}

// Run trains a fresh network under the given plan (nil for the
// attack-free baseline) and scores it against the baseline. Both cells
// are served from the cache when a plan with the same effect was
// already trained.
func (e *Experiment) Run(plan *FaultPlan) (SweepPoint, error) {
	r, err := e.lookup(plan)
	if err != nil {
		return SweepPoint{}, err
	}
	base, err := e.Baseline()
	if err != nil {
		return SweepPoint{}, err
	}
	return assemble(SweepPoint{Plan: plan}, r, base), nil
}

// SweepPoint is one cell of a campaign sweep: its coordinates, its
// result, and that result scored against the attack-free baseline.
type SweepPoint struct {
	ScalePc    float64 // threshold/theta change in percent (−20 … +20)
	FractionPc float64 // portion of the layer affected in percent
	VDD        float64 // supply voltage (Attack 5 sweeps)
	QuantilePc float64 // mismatch quantile (variation sweeps; 0 = nominal corner)
	Defense    string  // hardening applied to the cell ("" = undefended)
	Detected   bool    // dummy-neuron detector verdict for the cell's attack
	// Plan names the cell's configuration (nil = attack-free). A
	// weight- or learning-rate-fault cell carries a plan that only
	// names it.
	Plan *FaultPlan
	// Result is the cell's stored result, shared with every cell that
	// trains the same network; it must not be mutated.
	Result      *Result
	Baseline    float64 // the attack-free accuracy the cell is scored against
	RelChangePc float64 // 100·(acc−base)/base, the paper's reported metric
}

// assemble completes a cell's point with its result scored against the
// attack-free accuracy base. A baseline of 0 leaves RelChangePc 0.
func assemble(p SweepPoint, r *Result, base float64) SweepPoint {
	p.Result, p.Baseline = r, base
	if base > 0 {
		p.RelChangePc = 100 * (r.Accuracy - base) / base
	}
	return p
}

// campaignJob is one job of a campaign before execution: the cell's
// coordinates and the plan naming it, the corruption it trains, and
// the description used in audits, progress and error wrapping. The
// encoder seed is deliberately NOT part of the cell — the paper's
// protocol trains every configuration on identical spike trains, so
// all cells share the experiment's EncSeed (a campaign needing
// per-cell randomness would derive child seeds with runner.DeriveSeed
// instead).
type campaignJob struct {
	point SweepPoint
	fault corruption
	desc  string
}

// cellKeys returns every job's content address, in job order.
func (e *Experiment) cellKeys(jobs []campaignJob) ([]string, error) {
	keys := make([]string, len(jobs))
	for i, c := range jobs {
		key, err := c.fault.key(e)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", c.desc, err)
		}
		keys[i] = key
	}
	return keys, nil
}

// campaignMeta shapes the streamed records of one campaign: its sweep
// label, whether cells carry grid coordinates (ad-hoc cell lists do
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

// evalWidth splits the pool between the two levels of parallelism:
// with C cells in flight, each cell's read-only assignment pass gets
// width/C evaluation workers, so total presentation goroutines stay
// ≈ Workers instead of multiplying to Workers². A single-cell
// campaign therefore gets the whole pool inside the cell — the
// intra-cell engine's motivating case. cells must be positive.
func (e *Experiment) evalWidth(cells int) int {
	width := e.Workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return width / min(width, cells)
}

// runJobs runs campaign jobs on the experiment's worker pool and
// cache, handing results to onResult in job order. Each job is looked
// up once and computed on a miss, its assignment pass on evalWorkers
// workers.
func (e *Experiment) runJobs(jobs []campaignJob, keys []string, evalWorkers int, onResult func(int, *Result, bool) error) error {
	rjobs := make([]runner.Job[*Result], len(jobs))
	for i := range jobs {
		c := jobs[i]
		rjobs[i] = runner.Job[*Result]{
			Label: c.desc,
			Key:   keys[i],
			Run: func() (*Result, error) {
				r, err := e.compute(c.fault, evalWorkers)
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
		OnResult:   onResult,
		Obs:        e.Obs,
		Name:       "core.cells",
	}
	_, err := pool.Run(rjobs)
	return err
}

// runCampaign executes a campaign's jobs — the attack-free cell first,
// then the compiled cells — and assembles the compiled cells' points,
// each scored against job 0. The pool emits results in job order, so
// job 0 is known before any record streams to Sinks; completions
// report to OnProgress. The output is byte-identical to serial
// execution at any worker count.
func (e *Experiment) runCampaign(meta campaignMeta, jobs []campaignJob) ([]SweepPoint, error) {
	keys, err := e.cellKeys(jobs)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, 0, len(jobs)-1)
	var base float64
	emit := func(i int, r *Result, _ bool) error {
		if i == 0 {
			base = r.Accuracy
			return nil
		}
		p := assemble(jobs[i].point, r, base)
		pts = append(pts, p)
		if len(e.Sinks) == 0 {
			return nil
		}
		rec := sweepRecord(meta, p)
		for _, s := range e.Sinks {
			if err := s.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	// The width split counts the compiled cells only: job 0 is
	// normally a hit, so a single-cell campaign keeps the full width.
	if err := e.runJobs(jobs, keys, e.evalWidth(len(jobs)-1), emit); err != nil {
		return nil, err
	}
	return pts, nil
}

// sweepRecord renders one sweep point for the streaming sinks. The
// coordinate fields are included only for real sweeps — ad-hoc cell
// lists have no grid coordinates, and zeroes would misreport them —
// and the defense/detector fields only for scenario matrices, so plain
// sweeps keep their established record schema.
func sweepRecord(meta campaignMeta, p SweepPoint) runner.Record {
	planName := ""
	if p.Plan != nil {
		planName = p.Plan.Name
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
		runner.Field{Name: "accuracy", Value: p.Result.Accuracy},
		runner.Field{Name: "baseline", Value: p.Baseline},
		runner.Field{Name: "rel_change_pc", Value: p.RelChangePc},
		runner.Field{Name: "total_spikes", Value: p.Result.TotalSpikes},
	)
	if meta.matrix {
		rec = append(rec, runner.Field{Name: "detected", Value: p.Detected})
	}
	return rec
}

// WorstCase returns the sweep point with the most negative relative
// accuracy change. ok is false when points is empty (or no point
// carries a result), so callers never report a missing result.
func WorstCase(points []SweepPoint) (worst SweepPoint, ok bool) {
	for _, p := range points {
		if p.Result == nil {
			continue
		}
		if !ok || p.RelChangePc < worst.RelChangePc {
			worst, ok = p, true
		}
	}
	return worst, ok
}
