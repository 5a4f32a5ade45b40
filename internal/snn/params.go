package snn

// Intra-cell parallel inference engine (see DESIGN.md "Intra-cell
// inference engine").
//
// Training mutates a DiehlCook in place and is inherently serial — each
// presentation's STDP depends on the weights the previous one left
// behind. The read-only phases are not: the label-assignment pass after
// training and every Evaluate present images against *frozen*
// parameters, so images can run concurrently once two things hold:
//
//  1. Workers share parameters without sharing mutable state. Params is
//     the immutable view of a trained network (weights by reference,
//     effective thresholds and gains by copy); State is the cheap
//     per-worker scratch (membranes, refractory counters, drive and
//     spike buffers, a spike-count accumulator).
//  2. Each image's spike train depends only on the image, not on the
//     encoder position a serial loop happened to reach. Image i is
//     encoded once, into the Corpus, from ImageSeed(base, i) —
//     runner.DeriveSeed over the base seed and the image index — and
//     every pass, serial or parallel, reads that train, which is what
//     makes counts and accuracy bit-identical at any worker count.
//
// Frozen means frozen: a learn=false presentation updates no network
// parameter at all. In particular the adaptive thresholds theta do not
// accumulate or decay during inference (they are folded into
// Params.EffThresh once), matching BindsNET's learning-gated theta
// update — the previous serial Evaluate let theta drift across
// evaluation images, coupling image i's result to images < i.
//
// States are recycled through a package-level sync.Pool across passes
// and campaign cells, so a full scenario matrix stays allocation-flat
// in its read-only phases.

import (
	"fmt"
	"runtime"
	"sync"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/tensor"
)

// ImageSeed derives the presentation seed of image i from a base
// encoder seed. EncodeCorpus encodes image i from this seed, so a
// spike train depends only on (base, i), never on presentation order.
func ImageSeed(base int64, i int) int64 {
	return runner.DeriveSeed(base, "image", i)
}

// GroupParams is the frozen per-layer view: static LIF constants plus
// the per-neuron effective threshold and input gain with the adaptive
// threshold and fault hooks folded in.
type GroupParams struct {
	N      int
	Rest   float64
	Reset  float64
	Refrac int
	decay  float64

	// EffThresh[i] = (Thresh + Theta[i]) · ThreshScale[i], the firing
	// threshold inference compares against (LIFGroup.EffectiveThreshold
	// at freeze time).
	EffThresh tensor.Vector
	// Gain[i] multiplies neuron i's synaptic drive (the driver fault
	// hook, frozen).
	Gain tensor.Vector

	// wakeAll: some neuron may leave rest undriven — EffThresh[i] ≤ Rest
	// lets it fire from rest, or a non-finite gain turns zero drive into
	// NaN — so a sparse step must walk every neuron (see awakeSet).
	wakeAll bool
}

// freezeGroup snapshots a layer.
func freezeGroup(g *LIFGroup) GroupParams {
	cfg := g.Cfg
	gp := GroupParams{
		N: cfg.N, Rest: cfg.Rest, Reset: cfg.Reset, Refrac: cfg.Refrac,
		decay:     g.decay,
		EffThresh: tensor.NewVector(cfg.N),
		Gain:      g.InputGain.Copy(),
		wakeAll:   !allFinite(g.InputGain),
	}
	for i := 0; i < cfg.N; i++ {
		gp.EffThresh[i] = g.EffectiveThreshold(i)
		if gp.EffThresh[i] <= cfg.Rest {
			gp.wakeAll = true
		}
	}
	return gp
}

// step advances one layer one timestep against per-worker state. It is
// the learn=false image of LIFGroup.Step with theta and traces frozen:
// tensor.LIFStepFrozen does the same decay arithmetic and refractory
// gating, comparing against the precomputed EffThresh, and writes only
// the worker's v, refrac and mask; the walk over mask then applies the
// same reset.
func (g *GroupParams) step(v tensor.Vector, refrac []int, drive tensor.Vector, mask []uint64, scratch []int) []int {
	n := len(v)
	mask = mask[:tensor.MaskWords(n)]
	tensor.LIFStepFrozen(v, refrac[:n], drive[:n], g.Gain[:n], g.EffThresh[:n], g.Rest, g.decay, mask)
	scratch = appendSpikes(scratch[:0], mask)
	for _, i := range scratch {
		v[i] = g.Reset
		refrac[i] = g.Refrac
	}
	return scratch
}

// stepSparse is the frozen image of LIFGroup.stepSparse: drive is zero
// except at the indices in driven, which join the awake set, and the
// step walks only the awake set — or, driven and mostly awake, runs
// the dense step (see walkPays). With nothing driven, drive is not
// read and no drive term is added.
func (g *GroupParams) stepSparse(v tensor.Vector, refrac []int, drive tensor.Vector, driven []int, awake *awakeSet, scratch []int) []int {
	awake.add(driven)
	if len(driven) > 0 && !walkPays(len(awake.list), len(v)) {
		return g.step(v, refrac, drive, awake.mask, scratch)
	}
	scratch = scratch[:0]
	rest, decay := g.Rest, g.decay
	eff, gain := g.EffThresh[:len(v)], g.Gain[:len(v)]
	refrac = refrac[:len(v)]
	for _, i := range awake.list {
		x := rest + (v[i]-rest)*decay
		if refrac[i] > 0 {
			refrac[i]--
			v[i] = x
			continue
		}
		if len(driven) > 0 {
			x += drive[i] * gain[i]
		}
		if x >= eff[i] {
			scratch = append(scratch, i)
			x = g.Reset
			refrac[i] = g.Refrac
		}
		v[i] = x
	}
	return scratch
}

// Params is the immutable, shareable view of a trained DiehlCook
// network: any number of evaluation workers may present images against
// one Params concurrently, each with its own State. The weight matrix
// is shared by reference (inference never writes it); thresholds,
// gains and the drive scale are copied at freeze time, so reverting a
// fault plan after training does not retroactively change the view.
type Params struct {
	Cfg DiehlCookConfig

	// W is the trained input→exc weight matrix, shared read-only.
	W *tensor.Matrix

	// InputDriveScale is the frozen global driver corruption knob.
	InputDriveScale float64

	Exc GroupParams
	Inh GroupParams
}

// Params freezes the network's current parameters into a shareable
// inference view. The caller must not mutate the network's weights
// while the view is in use (layer hooks and theta may change freely —
// they were copied).
func (n *DiehlCook) Params() *Params {
	return &Params{
		Cfg:             n.Cfg,
		W:               n.W,
		InputDriveScale: n.InputDriveScale,
		Exc:             freezeGroup(n.Exc),
		Inh:             freezeGroup(n.Inh),
	}
}

// State is one evaluation worker's mutable scratch: everything a
// presentation touches that is not a parameter. States are cheap
// (a few vectors over the layer sizes), fully reset per image, and
// recycled through the package workspace pool.
type State struct {
	vExc, vInh           tensor.Vector
	refracExc, refracInh []int
	driveExc, driveInh   tensor.Vector // driveInh is all-zero between steps
	prevExc, prevInh     []int
	spikeExc, spikeInh   []int
	maskExc              []uint64 // the excitatory dense pass's spike mask
	awakeInh             awakeSet // holds the inhibitory layer's mask
	counts               tensor.Vector
}

// NewState allocates a worker state sized for p. Most callers should
// use the pooled acquire/release pair instead; NewState is the
// always-fresh path (and what the pool falls back to).
func (p *Params) NewState() *State {
	st := &State{}
	st.fit(p)
	return st
}

// fit (re)sizes the state for p, reusing slice capacity from previous
// configurations so pooled states migrate between cells without
// reallocating.
func (st *State) fit(p *Params) {
	st.vExc = resize(st.vExc, p.Exc.N)
	st.vInh = resize(st.vInh, p.Inh.N)
	st.driveExc = resize(st.driveExc, p.Exc.N)
	st.driveInh = resize(st.driveInh, p.Inh.N)
	st.counts = resize(st.counts, p.Exc.N)
	st.refracExc = resize(st.refracExc, p.Exc.N)
	st.refracInh = resize(st.refracInh, p.Inh.N)
	st.maskExc = resize(st.maskExc, tensor.MaskWords(p.Exc.N))
}

// resize returns s resized to n elements, reusing its capacity.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// reset clears all per-image dynamics, leaving no trace of whatever
// presentation — against whatever network — the state last served.
func (st *State) reset(p *Params) {
	st.vExc.Fill(p.Exc.Rest)
	st.vInh.Fill(p.Inh.Rest)
	st.awakeInh.reset(p.Inh.N)
	if p.Inh.wakeAll {
		st.awakeInh.fill()
	}
	for i := range st.refracExc {
		st.refracExc[i] = 0
	}
	for i := range st.refracInh {
		st.refracInh[i] = 0
	}
	st.prevExc = st.prevExc[:0]
	st.prevInh = st.prevInh[:0]
}

// workspacePool recycles States across evaluation passes and campaign
// cells. sync.Pool may drop entries under GC pressure — correctness
// never depends on a hit, only allocation volume does.
var workspacePool sync.Pool

// acquireState returns a ready state for p.
func acquireState(p *Params) *State {
	st, _ := workspacePool.Get().(*State)
	if st == nil {
		return p.NewState()
	}
	st.fit(p)
	return st
}

func releaseState(st *State) { workspacePool.Put(st) }

// step advances the frozen network one timestep: feedforward drive
// plus delayed lateral inhibition onto the excitatory layer, delayed
// one-to-one excitation onto the inhibitory layer — the exact
// DiehlCook.Step dataflow minus plasticity and adaptation.
func (p *Params) step(st *State, inputSpikes []int) []int {
	if s := p.InputDriveScale; s != 1 {
		p.W.SumRowsScaled(inputSpikes, s, st.driveExc)
	} else {
		p.W.SumRows(inputSpikes, st.driveExc)
	}
	if k := len(st.prevInh); k > 0 {
		sub := float64(k) * p.Cfg.WInhExc
		d := st.driveExc
		for i := range d {
			d[i] -= sub
		}
		for _, j := range st.prevInh {
			d[j] += p.Cfg.WInhExc
		}
	}
	st.spikeExc = p.Exc.step(st.vExc, st.refracExc, st.driveExc, st.maskExc, st.spikeExc)

	for _, j := range st.prevExc {
		st.driveInh[j] += p.Cfg.WExcInh
	}
	st.spikeInh = p.Inh.stepSparse(st.vInh, st.refracInh, st.driveInh, st.prevExc, &st.awakeInh, st.spikeInh)
	for _, j := range st.prevExc {
		st.driveInh[j] = 0
	}

	st.prevExc = append(st.prevExc[:0], st.spikeExc...)
	st.prevInh = append(st.prevInh[:0], st.spikeInh...)
	return st.spikeExc
}

// presentImage runs one full presentation (the train's driven steps +
// RestSteps quiet) and returns st.counts, the per-neuron excitatory
// spike counts. The returned vector is st's accumulator — copy it to
// retain past the next presentation. Steady-state the call allocates
// nothing.
func (p *Params) presentImage(st *State, tr SpikeTrain) tensor.Vector {
	st.reset(p)
	st.counts.Zero()
	for t := 0; t < tr.Steps(); t++ {
		for _, j := range p.step(st, tr.Step(t)) {
			st.counts[j]++
		}
	}
	for t := 0; t < p.Cfg.RestSteps; t++ {
		for _, j := range p.step(st, nil) {
			st.counts[j]++
		}
	}
	return st.counts
}

// EvalOptions configures a read-only presentation pass.
type EvalOptions struct {
	// Workers is the evaluation pool width; ≤0 uses all CPUs. Results
	// are bit-identical at every width.
	Workers int
	// Obs, when non-nil, receives the evaluation pool's telemetry under
	// "snn.eval.*" (per-shard run/wait histograms, job counters,
	// utilization). Purely observational: results are bit-identical
	// with or without it.
	Obs *obs.Registry
}

// evalShard is how many consecutive images one pool job presents. The
// shard size trades scheduling overhead against load balance; it does
// not affect results (each image's train is fixed in the corpus).
const evalShard = 8

// runShards presents the corpus against p in contiguous image shards
// on the evaluation pool and returns run's per-image results in image
// order. run is called with a ready workspace and an image index. A
// corpus that does not fit p's configuration is an error.
func runShards[T any](p *Params, c *Corpus, opt EvalOptions, run func(st *State, i int) T) ([]T, error) {
	if err := c.fits(p.Cfg); err != nil {
		return nil, err
	}
	total := c.Len()
	jobs := make([]runner.Job[[]T], 0, (total+evalShard-1)/evalShard)
	for lo := 0; lo < total; lo += evalShard {
		lo, hi := lo, min(lo+evalShard, total)
		jobs = append(jobs, runner.Job[[]T]{
			Label: fmt.Sprintf("images[%d:%d]", lo, hi),
			Run: func() ([]T, error) {
				st := acquireState(p)
				defer releaseState(st)
				out := make([]T, hi-lo)
				for i := lo; i < hi; i++ {
					out[i-lo] = run(st, i)
				}
				return out, nil
			},
		})
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := &runner.Pool[[]T]{Workers: workers, Obs: opt.Obs, Name: "snn.eval"}
	shards, err := pool.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, total)
	for _, s := range shards {
		out = append(out, s...)
	}
	return out, nil
}

// CountsParallel presents every image of the corpus read-only against
// p and returns the per-image excitatory spike counts, in image order
// — the parallel label-assignment kernel. Counts are bit-identical at
// any worker count (and to the serial path, which is the same kernel
// at width 1).
func CountsParallel(p *Params, c *Corpus, opt EvalOptions) ([]tensor.Vector, error) {
	return runShards(p, c, opt, func(st *State, i int) tensor.Vector {
		return p.presentImage(st, c.Train(i)).Copy()
	})
}

// EvaluateParallel presents every image of the corpus read-only
// against p, classifies each with the given neuron→class assignments,
// and returns the fraction classified correctly. Unlike CountsParallel
// it keeps no per-image counts, so a full evaluation pass is
// allocation-flat.
func EvaluateParallel(p *Params, c *Corpus, assignments []int, opt EvalOptions) (float64, error) {
	correct, err := runShards(p, c, opt, func(st *State, i int) int {
		if Classify(p.presentImage(st, c.Train(i)), assignments) == int(c.Labels[i]) {
			return 1
		}
		return 0
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, ok := range correct {
		total += ok
	}
	return float64(total) / float64(len(correct)), nil
}
