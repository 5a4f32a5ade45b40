package snn

import (
	"snnfi/internal/obs"
	"snnfi/internal/tensor"
)

// ProtocolVersion names the training/evaluation semantics trained
// results depend on, and belongs in every cache key that stores them
// (the core experiment fingerprint). Bump it whenever a change alters
// what a trained result contains — v2 was the intra-cell engine's
// per-image seeding and frozen-network assignment pass; v3 is the
// training-pass engine: the geometric skip-sampling encoder (one RNG
// draw per spike instead of per pixel per step;
// encoding.SkipSampling) and dirty-column homeostatic normalization
// (untouched columns keep their previous bits instead of rescaling by
// ≈1) — so stale caches miss instead of serving values computed under
// older semantics.
const ProtocolVersion = "train-protocol-v3"

// TrainResult summarizes a training run: per-neuron class assignments,
// classification accuracy over the presented images, and activity
// statistics useful for diagnosing attacks. PerImage, TotalSpikes,
// Assignments and Accuracy all come from the read-only assignment pass
// over the frozen trained network (see TrainWith).
type TrainResult struct {
	Assignments []int   // neuron → class (−1 for never-active neurons)
	Accuracy    float64 // fraction of images classified correctly
	TotalSpikes float64 // total excitatory spikes over the assignment pass
	PerImage    []tensor.Vector
	Labels      []uint8
}

// TrainOptions configures TrainWith beyond its data arguments.
type TrainOptions struct {
	// BeforeImage, when non-nil, runs before image i is presented in
	// the learning pass. Fault-injection campaigns use it to corrupt
	// network parameters mid-training (e.g. re-applying synaptic drift
	// every N images) without duplicating the training/labeling/scoring
	// loop. A full NormalizeWeights follows every call, since the hook
	// may write W where the dirty-column tracking cannot see.
	BeforeImage func(i int)
	// Workers sizes the read-only assignment pass; ≤0 uses all CPUs.
	// Results are bit-identical at every width.
	Workers int
	// Obs, when non-nil, records phase spans: "snn.stdp" (the serial
	// learning pass) and "snn.assign" (the parallel assignment pass),
	// plus the assignment pool's "snn.eval.*" metrics and both passes'
	// work counters (see workCounts). Observation only — trained
	// results are identical with or without it.
	Obs *obs.Registry
}

// workCounts are exact counts of the run-time decisions a network's
// steps make, by the path each takes (indexed by inhEvent … normDense):
// inhibitory neuron updates by event and by dense pass; STDP rows (a
// depressed pixel's row, or a potentiated pre-synaptic row) by indexed
// walk and by masked kernel; and dirty columns normalized by walk and
// by dense form. The steps count in plain fields; TrainWith publishes
// its learning pass's counts and each read-only pass its own, once per
// pass (publish).
type workCounts [nWork]int64

// Indices of workCounts. The first two are LIFGroup.updates'.
const (
	inhEvent = updEvent
	inhDense = updDense
	stdpWalk = iota
	stdpKernel
	normWalk
	normDense
	nWork
)

// workNames are the obs counters workCounts publish to.
var workNames = [nWork]string{
	"snn.inh.event", "snn.inh.dense",
	"snn.stdp.rows_walk", "snn.stdp.rows_kernel",
	"snn.norm.cols_walk", "snn.norm.cols_dense",
}

// work returns n's counts since clearWork.
func (n *DiehlCook) work() workCounts {
	w := n.tally
	copy(w[inhEvent:], n.Inh.updates[:])
	return w
}

// clearWork zeroes n's counts.
func (n *DiehlCook) clearWork() {
	n.tally = workCounts{}
	n.Inh.updates = [2]int64{}
}

// add adds o's counts to w's.
func (w *workCounts) add(o workCounts) {
	for i, x := range o {
		w[i] += x
	}
}

// publish adds w's counts to reg's counters; a nil reg takes none.
func (w workCounts) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, x := range w {
		reg.Counter(workNames[i]).Add(x)
	}
}

// TrainWith presents the corpus's images once (the paper iterates
// training samples once), learning with STDP, then assigns each
// excitatory neuron the class for which it spiked most ("all activity"
// labeling) and scores classification accuracy over the same
// presentations — the paper's protocol: "all experiments are conducted
// on 1000 Poisson-encoded training images", with accuracy measured on
// those images. It runs as the intra-cell engine's two passes over the
// corpus's spike trains:
//
//  1. Learning pass, serial (STDP is order-dependent): each image's
//     train is presented with plasticity on, after the per-image
//     homeostatic normalization. A full NormalizeWeights opens the
//     pass, since whatever wrote W before it (fresh init, fault setup)
//     predates the dirty-column tracking, and follows every
//     BeforeImage hook; otherwise TrainImage renormalizes only the
//     columns STDP touched.
//  2. Assignment pass, parallel: the same trains are re-presented to
//     the trained network with learning off and theta frozen
//     (CountsParallel), on opt.Workers evaluation workers. The
//     resulting counts drive labeling and scoring, so the reported
//     accuracy is a property of the finished network rather than of
//     its mid-training trajectory.
//
// The corpus is only read, so any number of cells may train on one
// corpus concurrently.
func TrainWith(n *DiehlCook, c *Corpus, opt TrainOptions) (*TrainResult, error) {
	if err := c.fits(n.Cfg); err != nil {
		return nil, err
	}
	stdp := obs.Span(opt.Obs, "snn.stdp")
	n.clearWork()
	for i, tr := range c.trains {
		if opt.BeforeImage != nil {
			opt.BeforeImage(i)
		}
		if i == 0 || opt.BeforeImage != nil {
			n.NormalizeWeights()
		}
		n.TrainImage(tr)
	}
	stdp.End()
	n.work().publish(opt.Obs)

	assign := obs.Span(opt.Obs, "snn.assign")
	counts, err := CountsParallel(n, c, EvalOptions{Workers: opt.Workers, Obs: opt.Obs})
	assign.End()
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		PerImage: counts,
		Labels:   append([]uint8(nil), c.Labels...),
	}
	for _, cnt := range counts {
		res.TotalSpikes += cnt.Sum()
	}
	res.Assignments = AssignLabels(res.PerImage, res.Labels, n.Cfg.NExc)
	correct := 0
	for i, cnt := range counts {
		if Classify(cnt, res.Assignments) == int(res.Labels[i]) {
			correct++
		}
	}
	res.Accuracy = float64(correct) / float64(len(counts))
	return res, nil
}

// AssignLabels implements Diehl&Cook "all activity" neuron labeling:
// each neuron is assigned the class for which its average spike count
// (per presentation of that class) is highest. Neurons that never spike
// get −1.
func AssignLabels(perImage []tensor.Vector, labels []uint8, nNeurons int) []int {
	const nClasses = 10
	sums := tensor.NewMatrix(nClasses, nNeurons)
	classCount := make([]float64, nClasses)
	for i, counts := range perImage {
		c := int(labels[i])
		classCount[c]++
		row := sums.Row(c)
		row.Add(counts)
	}
	assignments := make([]int, nNeurons)
	for j := 0; j < nNeurons; j++ {
		bestClass, bestRate := -1, 0.0
		for c := 0; c < nClasses; c++ {
			if classCount[c] == 0 {
				continue
			}
			rate := sums.At(c, j) / classCount[c]
			if rate > bestRate {
				bestRate, bestClass = rate, c
			}
		}
		assignments[j] = bestClass
	}
	return assignments
}

// Classify predicts the class of one presentation from per-neuron spike
// counts: the class whose assigned neurons fired most on average.
// Returns −1 when nothing fired and no class can be preferred.
func Classify(counts tensor.Vector, assignments []int) int {
	const nClasses = 10
	var sum [nClasses]float64
	var num [nClasses]float64
	for j, c := range assignments {
		if c < 0 || j >= len(counts) {
			continue
		}
		sum[c] += counts[j]
		num[c]++
	}
	best, bestRate := -1, 0.0
	for c := 0; c < nClasses; c++ {
		if num[c] == 0 {
			continue
		}
		rate := sum[c] / num[c]
		if rate > bestRate {
			bestRate, best = rate, c
		}
	}
	return best
}
