package snn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"snnfi/internal/tensor"
)

// DiehlCookConfig parametrizes the 3-layer Diehl&Cook network the paper
// attacks (Fig. 7a): Poisson input all-to-all onto an excitatory layer
// with STDP, excitatory 1-to-1 onto an inhibitory layer, and inhibitory
// all-to-all-but-self back onto the excitatory layer.
type DiehlCookConfig struct {
	NInput int // input dimensionality (784 for 28×28 digits)
	NExc   int // excitatory neurons (paper: 100)
	NInh   int // inhibitory neurons (paper: 100, equal to NExc)

	WMax    float64 // input→exc weight ceiling (BindsNET: 1.0)
	Norm    float64 // per-column weight normalization target (78.4)
	NuPre   float64 // pre-synaptic STDP rate (paper: 0.0004)
	NuPost  float64 // post-synaptic STDP rate (paper: 0.0002)
	WExcInh float64 // exc→inh one-to-one weight (22.5)
	WInhExc float64 // inh→exc lateral inhibition magnitude (120)

	Steps     int // stimulus presentation steps per image (ms at dt=1)
	RestSteps int // quiet steps after each image

	Seed int64 // weight-initialization seed
}

// DefaultConfig returns the experimental configuration: 100 excitatory
// + 100 inhibitory neurons, 250 ms presentations, BindsNET eth_mnist
// constants for the fixed weights.
//
// Learning rates follow BindsNET's library defaults nu = (1e-4, 1e-2)
// rather than the 0.0004/0.0002 quoted in the paper's text: under our
// discretization the quoted rates cannot bootstrap neuron
// specialization (winners rotate uniformly and never imprint), while
// the library defaults learn. They overshoot the paper's 75.92%
// baseline: at the paper's scale and seed 7 the baseline reads 88.00%
// on 1000 images (ROADMAP items 1–2 measure its seed band and fit
// nu_post to it). See EXPERIMENTS.md for the calibration record.
func DefaultConfig() DiehlCookConfig {
	return DiehlCookConfig{
		NInput: 784, NExc: 100, NInh: 100,
		WMax: 1.0, Norm: 78.4,
		NuPre: 0.0001, NuPost: 0.01,
		WExcInh: 22.5, WInhExc: 120,
		Steps: 250, RestSteps: 0,
		Seed: 1,
	}
}

// Validate reports configuration errors.
func (c DiehlCookConfig) Validate() error {
	if c.NInput <= 0 || c.NExc <= 0 || c.NInh <= 0 {
		return fmt.Errorf("snn: layer sizes must be positive: %d/%d/%d", c.NInput, c.NExc, c.NInh)
	}
	if c.NInh != c.NExc {
		return fmt.Errorf("snn: Diehl&Cook needs NInh == NExc (1-to-1 coupling), got %d != %d", c.NInh, c.NExc)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("snn: Steps must be positive, got %d", c.Steps)
	}
	if c.WMax <= 0 || c.Norm <= 0 {
		return fmt.Errorf("snn: WMax and Norm must be positive")
	}
	return nil
}

// DiehlCook is the trainable network with fault-injection hooks exposed
// through its layers and the InputDriveScale knob.
//
// The hot path is built around sparse supports (see DESIGN.md
// "Network-tier hot path"): the per-image sets of pixels and excitatory
// neurons with nonzero STDP traces are tracked as index lists, so the
// plasticity loops and trace updates touch only active synapses instead
// of walking full layers, and the pre-synaptic trace itself is lazily
// evaluated from each pixel's last spike time (bit-identical to the
// dense per-step decay).
type DiehlCook struct {
	Cfg DiehlCookConfig

	W   *tensor.Matrix // input→exc weights, NInput×NExc, STDP-plastic
	Exc *LIFGroup
	Inh *LIFGroup

	// InputDriveScale multiplies the input→exc drive per input spike —
	// the network-level image of driver spike-amplitude corruption
	// (Attack 1 / the driver component of Attack 5). Per-neuron
	// granularity lives in Exc.InputGain; this is the global knob.
	InputDriveScale float64

	// Sparse trace state, reset per image. A pixel's pre-synaptic trace
	// is 1 at its spike step and decays by preTraceDecayPerMs each
	// later step; instead of densely decaying a trace vector every
	// step, the network records each pixel's last spike step and reads
	// the trace as preDecayTable(d)[d] for d steps since — a table
	// built by the same iterated multiplication the dense decay would
	// perform (so values are bit-identical), shared by every network
	// in the process (see preDecayTable). preActive lists the pixels
	// with nonzero trace, in first-spike order. The post-synaptic
	// support, the excitatory neurons with nonzero trace, is the
	// layer's own (Exc.traced; the trace itself lives densely in
	// Exc.Trace).
	preLastSpike []int
	preSeen      []bool
	preActive    []int
	stepT        int // steps since ResetState

	// Dirty-column tracking for incremental normalization: the weight
	// columns STDP has touched since the last normalization, i.e. the
	// columns that may no longer sum to Cfg.Norm. Every STDP update
	// (depression over the post-synaptic support, potentiation over
	// excSpikes) lands in a column whose neuron spiked during a learning
	// step of the current or an earlier un-normalized image, and Step
	// marks exactly those columns. NOT maintained across direct writes
	// to W.Data (extension fault hooks) — those callers must use the
	// full NormalizeWeights. The layers' sparse steps have the same
	// blind spot for direct writes to membrane state (see
	// LIFGroup.Reset).
	dirty indexSet

	// tally counts the steps' STDP and normalization decisions (see
	// workCounts); the inhibitory layer counts its own updates.
	tally workCounts

	// scratch. driveInh is all-zero between steps: Step sets it at the
	// drive indices and clears them after the inhibitory step. colScratch
	// (NExc) holds the per-neuron depression coefficients during a
	// learning step and the column sums during normalization. counts
	// (NExc) is the spike-count vector present fills and returns.
	// prevExc and prevInh hold the last step's spikes: each step swaps
	// them with the layers' spike buffers.
	driveExc   tensor.Vector
	driveInh   tensor.Vector
	colScratch tensor.Vector
	counts     tensor.Vector
	prevExc    []int
	prevInh    []int
}

// NewDiehlCook builds a network with uniform random initial weights.
// Its weight matrix comes from a pool; Release returns it.
func NewDiehlCook(cfg DiehlCookConfig) (*DiehlCook, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	exc, err := NewLIFGroup(ExcConfig(cfg.NExc))
	if err != nil {
		return nil, err
	}
	inh, err := NewLIFGroup(InhConfig(cfg.NInh))
	if err != nil {
		return nil, err
	}
	n := newDiehlCook(cfg, exc, inh)
	n.W = acquireWeights(cfg.NInput, cfg.NExc)
	preDecayTable(cfg.Steps + cfg.RestSteps) // pre-size for the presentation length
	rng := rand.New(rand.NewSource(cfg.Seed))
	n.W.RandFill(rng, 0, 0.3)
	n.NormalizeWeights()
	return n, nil
}

// weightPool recycles weight matrices from released networks into new
// ones, as frozenPool does for frozen copies: every campaign cell
// trains a network of the experiment's shape, so a cell reuses the
// matrix an earlier one released instead of allocating its own.
// sync.Pool may drop entries under GC pressure — correctness never
// depends on a hit, only allocation volume does.
var weightPool sync.Pool

// acquireWeights returns a rows×cols matrix with undefined contents,
// from the pool when it holds one of that shape.
func acquireWeights(rows, cols int) *tensor.Matrix {
	if w, _ := weightPool.Get().(*tensor.Matrix); w != nil && w.Rows == rows && w.Cols == cols && len(w.Data) == rows*cols {
		return w
	}
	return tensor.NewMatrix(rows, cols)
}

// Release hands n's weight matrix to the pool a later network takes
// its matrix from, and leaves n without one. Call it once nothing
// reads n.W any more: after TrainWith has returned (its read-only
// pass releases its frozen copies, which share the matrix).
func (n *DiehlCook) Release() {
	if n.W != nil {
		weightPool.Put(n.W)
		n.W = nil
	}
}

// newDiehlCook assembles a network around two layers, with its step
// state and scratch but no weight matrix.
func newDiehlCook(cfg DiehlCookConfig, exc, inh *LIFGroup) *DiehlCook {
	return &DiehlCook{
		Cfg:             cfg,
		Exc:             exc,
		Inh:             inh,
		InputDriveScale: 1,
		preLastSpike:    make([]int, cfg.NInput),
		preSeen:         make([]bool, cfg.NInput),
		dirty:           newIndexSet(cfg.NExc),
		driveExc:        tensor.NewVector(cfg.NExc),
		driveInh:        tensor.NewVector(cfg.NInh),
		colScratch:      tensor.NewVector(cfg.NExc),
		counts:          tensor.NewVector(cfg.NExc),
		prevExc:         make([]int, 0, cfg.NExc),
		prevInh:         make([]int, 0, cfg.NInh),
	}
}

// The pre-synaptic trace decay table is shared by every network in the
// process: the decay constant is fixed, so decayPow[k] is the same
// value everywhere, and campaign cells training in parallel would
// otherwise each rebuild an identical table. Growth is copy-on-grow
// behind a mutex with atomic publication — readers loaded an old table
// keep a fully valid prefix, so concurrent lookups are race-free and
// never observe a partially built entry.
var (
	preDecayMu  sync.Mutex
	preDecayTab atomic.Pointer[[]float64]
)

// preDecayTable returns a decay table covering at least k steps
// (len > k), built by the same iterated multiplication a densely
// stored trace would undergo (decayPow[k] = decayPow[k-1]·decay,
// starting from 1) so values are bit-identical to dense decay.
func preDecayTable(k int) []float64 {
	if t := preDecayTab.Load(); t != nil && len(*t) > k {
		return *t
	}
	preDecayMu.Lock()
	defer preDecayMu.Unlock()
	old := preDecayTab.Load()
	if old != nil && len(*old) > k {
		return *old
	}
	var prev []float64
	if old != nil {
		prev = *old
	} else {
		prev = []float64{1}
	}
	// Copy into a fresh slice: appending in place could republish
	// memory a concurrent reader is still indexing.
	next := make([]float64, k+1)
	copy(next, prev)
	for i := len(prev); i <= k; i++ {
		next[i] = next[i-1] * preTraceDecayPerMs
	}
	preDecayTab.Store(&next)
	return next
}

// NormalizeWeights rescales each excitatory neuron's afferent weights
// to sum to Cfg.Norm (Diehl&Cook homeostasis, applied once per sample).
// The full-matrix pass is correct regardless of how the weights were
// modified (STDP, fault hooks, direct writes); TrainImage uses
// the incremental dirty-column form instead.
func (n *DiehlCook) NormalizeWeights() {
	n.W.NormalizeCols(n.Cfg.Norm, n.colScratch)
	n.dirty.clear()
}

// normalizeDirty renormalizes only the columns STDP has touched since
// the last normalization. Untouched columns still sum to (almost
// exactly) Cfg.Norm from their previous normalization and are left
// bit-for-bit alone, where a full pass would rescale them by a factor
// within one ulp of 1. This per-column skip is the train-protocol-v3
// normalization contract (see ProtocolVersion).
func (n *DiehlCook) normalizeDirty() {
	k := int64(len(n.dirty.list))
	if n.W.NormalizeColsSubset(n.Cfg.Norm, n.dirty.list, n.dirty.mask, n.colScratch) {
		n.tally[normDense] += k
	} else {
		n.tally[normWalk] += k
	}
	n.dirty.clear()
}

// ResetState clears per-image dynamic state (membranes, traces,
// pending spikes, sparse trace supports) while keeping weights, theta,
// and fault hooks.
func (n *DiehlCook) ResetState() {
	n.Exc.Reset()
	n.Inh.Reset()
	for _, i := range n.preActive {
		n.preSeen[i] = false
	}
	n.preActive = n.preActive[:0]
	n.prevExc = n.prevExc[:0]
	n.prevInh = n.prevInh[:0]
	n.stepT = 0
}

// preTraceDecay is exp(−dt/20ms), matching the exc trace constant.
const preTraceDecayPerMs = 0.951229424500714 // exp(-1/20)

// PreTrace returns the current pre-synaptic trace of pixel i: 0 if the
// pixel has not spiked at a learning step since the last ResetState,
// else the decayed value of the 1 set at its most recent one.
func (n *DiehlCook) PreTrace(i int) float64 {
	if !n.preSeen[i] {
		return 0
	}
	d := n.stepT - 1 - n.preLastSpike[i]
	return preDecayTable(d)[d]
}

// Step advances the network one timestep given the indices of input
// pixels that spiked. When learn is true the input→exc weights are
// updated with the post-pre STDP rule. It returns the excitatory spike
// indices (valid until the next call). A learn=false step writes no
// weight and no pre-synaptic trace; it is the frozen presentation
// CountsParallel runs, on a copy whose theta does not adapt.
func (n *DiehlCook) Step(inputSpikes []int, learn bool) []int {
	cfg := &n.Cfg

	// 1. Synaptic drive onto the excitatory layer: feedforward input
	// spikes (this step) plus lateral inhibition from last step's
	// inhibitory spikes (one-step synaptic delay, as in BindsNET).
	if s := n.InputDriveScale; s != 1 {
		n.W.SumRowsScaled(inputSpikes, s, n.driveExc)
	} else {
		n.W.SumRows(inputSpikes, n.driveExc)
	}
	// Lateral inhibition in O(NExc): every neuron loses WInhExc per
	// previous-step inhibitory spike except the spiker's own partner,
	// so subtract the total once and add the self-coupling back. (The
	// summation order differs from the per-spike loop at the ulp level;
	// see the calibration record in EXPERIMENTS.md.)
	if k := len(n.prevInh); k > 0 {
		sub := float64(k) * cfg.WInhExc
		d := n.driveExc
		for i := range d {
			d[i] -= sub
		}
		for _, j := range n.prevInh {
			d[j] += cfg.WInhExc
		}
	}

	// 2. Excitatory layer step. Newly spiked neurons join the layer's
	// sparse trace support, which the STDP pass reads as the
	// post-synaptic support (their trace was just set to 1).
	excSpikes := n.Exc.Step(n.driveExc)

	// 3. Inhibitory layer driven 1-to-1 by excitatory spikes from the
	// previous step. The drive is zero except at those spikers, so the
	// layer takes a sparse step (LIFGroup.stepSparse): it visits only
	// the driven neurons, the rest at rest or on the shared post-spike
	// trajectory, until one falls short of its threshold; from then on
	// it runs the dense pass on driveInh for the rest of the image.
	for _, j := range n.prevExc {
		n.driveInh[j] += cfg.WExcInh
	}
	inhSpikes := n.Inh.stepSparse(n.driveInh, n.prevExc)
	for _, j := range n.prevExc {
		n.driveInh[j] = 0
	}

	// 4. STDP on input→exc (post-pre rule): a pre spike depresses by
	// the post trace; a post spike potentiates by the pre trace. Both
	// walk the sparse supports — exactly the synapses whose traces are
	// nonzero — instead of full layers, with arithmetic identical to
	// the dense rule per touched weight. Depression updates each spiked
	// pixel's contiguous weight row at the active neurons; potentiation
	// updates the spiking neurons' columns at the active pixels,
	// reading each pre trace from the decay table. Once a quarter of
	// the layer takes part (4·k ≥ NExc: k active neurons for
	// depression, k spiking ones for potentiation), each runs as a
	// masked row kernel over every column instead (tensor.DepressRows,
	// PotentiateRows; four columns per instruction on AVX2 hosts),
	// with the same operations per selected weight.
	if learn {
		// Mark the spikers' columns dirty for incremental normalization.
		// Every column the STDP updates below will ever touch belongs to
		// a neuron in the post-synaptic support, which only grows via
		// excSpikes — so marking spikes at learning steps covers the
		// whole touched set by the time normalization runs.
		for _, j := range excSpikes {
			n.dirty.add(j)
		}
		post := &n.Exc.traced
		if len(post.list) > 0 && len(inputSpikes) > 0 {
			// The depression of neuron j's synapses, nuPre·trace[j], is
			// the same for every spiked pixel: compute it once per step.
			dep := n.colScratch
			trace := n.Exc.Trace
			for _, j := range post.list {
				dep[j] = cfg.NuPre * trace[j]
			}
			if 4*len(post.list) >= len(dep) {
				n.W.DepressRows(inputSpikes, dep, post.mask)
				n.tally[stdpKernel] += int64(len(inputSpikes))
			} else {
				n.tally[stdpWalk] += int64(len(inputSpikes))
				for _, i := range inputSpikes {
					row := n.W.Row(i)
					for _, j := range post.list {
						w := row[j] - dep[j]
						if w < 0 {
							w = 0
						}
						row[j] = w
					}
				}
			}
		}
		if len(excSpikes) > 0 {
			decayPow := preDecayTable(n.stepT)
			nuPost, wmax := cfg.NuPost, cfg.WMax
			if 4*len(excSpikes) >= cfg.NExc {
				// Pixel i's addend nuPost·trace is the same rounded
				// product for every spiking neuron: form it once per
				// pixel, a stack buffer's worth of pixels at a time. The
				// excitatory layer's last step was its dense pass, so its
				// spike mask selects exactly excSpikes.
				n.tally[stdpKernel] += int64(len(n.preActive))
				var add [64]float64
				for lo := 0; lo < len(n.preActive); lo += len(add) {
					rows := n.preActive[lo:min(lo+len(add), len(n.preActive))]
					for k, i := range rows {
						add[k] = nuPost * decayPow[n.stepT-1-n.preLastSpike[i]]
					}
					n.W.PotentiateRows(rows, add[:len(rows)], wmax, n.Exc.mask)
				}
			} else {
				n.tally[stdpWalk] += int64(len(n.preActive))
				wd, cols := n.W.Data, n.W.Cols
				for _, j := range excSpikes {
					for _, i := range n.preActive {
						tr := decayPow[n.stepT-1-n.preLastSpike[i]]
						w := wd[i*cols+j] + nuPost*tr
						if w > wmax {
							w = wmax
						}
						wd[i*cols+j] = w
					}
				}
			}
		}
	}

	// 5. Pre-synaptic trace update: record this step as the pixels'
	// last spike time (the lazy image of "decay all traces, then set
	// spiked pixels to 1"), extending the support with first-time
	// spikers. Only STDP reads the pre-synaptic traces, so only a
	// learning step records; the rest steps after a learning image
	// carry no input, and a frozen presentation learns at no step.
	if learn {
		for _, i := range inputSpikes {
			if !n.preSeen[i] {
				n.preSeen[i] = true
				n.preActive = append(n.preActive, i)
			}
			n.preLastSpike[i] = n.stepT
		}
	}
	n.stepT++

	// 6. Remember this step's spikes for next step's delayed synapses:
	// the layers' spike lists become prevExc and prevInh, and the lists
	// they replace, read for the last time above, become the layers'
	// buffers for the next step.
	n.prevExc, n.Exc.spikeScratch = excSpikes, n.prevExc[:0]
	n.prevInh, n.Inh.spikeScratch = inhSpikes, n.prevInh[:0]
	return excSpikes
}

// TrainImage presents one image's spike train with learning enabled,
// after the per-image homeostatic normalization restricted to the
// weight columns STDP touched since the last normalization (see
// normalizeDirty). It assumes nothing outside Step has written W since
// the last normalization, so callers that mutate weights directly
// (fault-injection hooks) must run the full NormalizeWeights first, as
// TrainWith does after every BeforeImage hook. It returns the
// presentation's per-neuron excitatory spike counts in a vector the
// network owns, valid until its next presentation.
func (n *DiehlCook) TrainImage(tr SpikeTrain) tensor.Vector {
	n.normalizeDirty()
	return n.present(tr, true)
}

// present is one presentation without the homeostatic normalization:
// ResetState, the train's steps, then the quiet RestSteps, which never
// learn. It zeroes n.counts, adds each step's excitatory spikes to it
// and returns it. The normalization policy is the caller's (see
// TrainImage).
func (n *DiehlCook) present(tr SpikeTrain, learn bool) tensor.Vector {
	counts := n.counts
	n.ResetState()
	counts.Zero()
	for t := 0; t < tr.Steps(); t++ {
		for _, j := range n.Step(tr.Step(t), learn) {
			counts[j]++
		}
	}
	for t := 0; t < n.Cfg.RestSteps; t++ {
		for _, j := range n.Step(nil, false) {
			counts[j]++
		}
	}
	return counts
}
