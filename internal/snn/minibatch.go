package snn

// Minibatch STDP training engine (train-protocol-v3, TrainOptions.Batch
// > 1).
//
// The serial Diehl&Cook protocol is order-dependent: image i's STDP
// runs against the weights image i−1 left behind, so the learning pass
// cannot be parallelized without changing what is computed. Minibatch
// training changes it deliberately and deterministically: each group of
// Batch consecutive images is presented against the *same* frozen
// snapshot of the plastic parameters (weights and excitatory adaptive
// thresholds, normalized once at the start of the batch), each image's
// parameter updates are computed independently, and the per-image
// updates are merged in image order:
//
//	W      = clamp( W_frozen + Σ_i (W_i − W_frozen), 0, WMax )
//	Theta  = Theta_frozen + Σ_i (Theta_i − Theta_frozen)
//
// Independence is what buys parallelism: the batch's presentations run
// concurrently on a pool of worker clones, and because every image's
// delta depends only on (frozen parameters, image i's spike train) —
// never on scheduling — and the merge folds
// deltas in image index order, the trained result is bit-identical at
// every worker count and completion order. Batch = 1 does not route
// here: the serial path applies updates in place, and floating point
// makes frozen + (trained − frozen) differ from trained in the last
// ulp, so the batch engine at width 1 would not reproduce it.
//
// A per-image weight delta is sparse: STDP only touches synapses whose
// pre and post traces are nonzero, i.e. rows in the image's final
// preActive support and columns in its final post-synaptic support,
// the excitatory layer's traced neurons (both supersets of the touched
// set — depression writes inputSpikes × post-support rows/cols and
// every spiked pixel enters preActive the same step; potentiation
// writes preActive × excSpikes and excSpikes joins the post support
// before the learn pass). Extraction walks that submatrix,
// records entries whose value moved, and restores them to the frozen
// values — returning the clone to the snapshot for its next image
// without a full-matrix copy. Theta moves densely (it decays every
// driven step), so its delta is a dense vector.

import (
	"fmt"
	"runtime"

	"snnfi/internal/runner"
	"snnfi/internal/tensor"
)

// trainDelta is one image's contribution to its minibatch.
type trainDelta struct {
	wIdx   []int32       // flattened W indices whose weight changed
	wDelta []float64     // matching (presented − frozen) differences
	dTheta tensor.Vector // dense excitatory theta delta
	cols   []int         // STDP-touched columns, for dirty normalization
}

// trainClone is one training worker's private network. Its plastic
// parameters track the master's batch snapshot: sync performs
// the full copy when the master has merged a batch since the clone last
// looked, and present restores the touched entries afterwards, so
// within a batch the clone stays on the snapshot without re-copying.
type trainClone struct {
	net     *DiehlCook
	version uint64 // master merge counter the clone's parameters mirror
}

// newTrainClone builds a worker clone of master: same configuration and
// fault hooks, own weight/state storage. Plastic parameters are synced
// separately (version 0 forces the first sync).
func newTrainClone(master *DiehlCook) (*trainClone, error) {
	n, err := newNetwork(master.Cfg, master.Exc.Cfg, master.Inh.Cfg)
	if err != nil {
		return nil, err
	}
	copy(n.Exc.ThreshScale, master.Exc.ThreshScale)
	copy(n.Exc.InputGain, master.Exc.InputGain)
	copy(n.Inh.ThreshScale, master.Inh.ThreshScale)
	copy(n.Inh.InputGain, master.Inh.InputGain)
	n.InputDriveScale = master.InputDriveScale
	return &trainClone{net: n}, nil
}

// sync brings the clone's plastic parameters (weights, adaptive
// thresholds) up to the master's batch snapshot. The master is
// read-only for the duration of a batch, so concurrent syncs from
// several clones are safe.
func (c *trainClone) sync(master *DiehlCook, version uint64) {
	if c.version == version {
		return
	}
	copy(c.net.W.Data, master.W.Data)
	copy(c.net.Exc.Theta, master.Exc.Theta)
	copy(c.net.Inh.Theta, master.Inh.Theta)
	c.version = version
}

// present runs one learning presentation of tr on the clone, extracts
// the parameter delta against the master's frozen snapshot, and
// restores the clone to the snapshot. The delta depends only on the
// snapshot and the train.
func (c *trainClone) present(master *DiehlCook, tr SpikeTrain) trainDelta {
	n := c.net
	n.present(tr, true)

	d := trainDelta{
		dTheta: make(tensor.Vector, len(n.Exc.Theta)),
		cols:   append([]int(nil), n.dirty.list...),
	}
	mw, cw := master.W.Data, n.W.Data
	cols := n.W.Cols
	for _, i := range n.preActive {
		base := i * cols
		for _, j := range n.Exc.traced.list {
			e := base + j
			if cw[e] != mw[e] {
				d.wIdx = append(d.wIdx, int32(e))
				d.wDelta = append(d.wDelta, cw[e]-mw[e])
				cw[e] = mw[e]
			}
		}
	}
	mt := master.Exc.Theta
	for j := range d.dTheta {
		d.dTheta[j] = n.Exc.Theta[j] - mt[j]
	}
	copy(n.Exc.Theta, mt)
	n.dirty.clear()
	return d
}

// applyDeltas merges a batch's per-image deltas into the master in
// image order, clamps every touched weight to [0, WMax] (individual
// updates respect the bounds but their sum may not), and marks the
// touched columns dirty for the next batch's normalization.
func applyDeltas(n *DiehlCook, deltas []trainDelta) {
	wd := n.W.Data
	for _, d := range deltas {
		for k, e := range d.wIdx {
			wd[e] += d.wDelta[k]
		}
		n.Exc.Theta.Add(d.dTheta)
		for _, j := range d.cols {
			n.dirty.add(j)
		}
	}
	wmax := n.Cfg.WMax
	for _, d := range deltas {
		for _, e := range d.wIdx {
			if wd[e] < 0 {
				wd[e] = 0
			} else if wd[e] > wmax {
				wd[e] = wmax
			}
		}
	}
}

// trainMinibatch is the Batch > 1 learning pass of TrainWith: images
// are grouped into batches of opt.Batch, each batch is normalized,
// presented in parallel against the frozen parameters, and merged in
// image order. Results are bit-identical at every opt.Workers.
func trainMinibatch(n *DiehlCook, c *Corpus, opt TrainOptions) error {
	batch := opt.Batch
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batch {
		workers = batch
	}
	clones := make(chan *trainClone, workers)
	for w := 0; w < workers; w++ {
		cl, err := newTrainClone(n)
		if err != nil {
			return err
		}
		clones <- cl
	}

	pool := &runner.Pool[trainDelta]{Workers: workers, Obs: opt.Obs, Name: "snn.stdp"}
	version := uint64(1)
	for lo := 0; lo < c.Len(); lo += batch {
		lo, hi := lo, min(lo+batch, c.Len())
		n.normalizeDirty()
		jobs := make([]runner.Job[trainDelta], 0, hi-lo)
		for i := lo; i < hi; i++ {
			i := i
			jobs = append(jobs, runner.Job[trainDelta]{
				Label: fmt.Sprintf("train image %d", i),
				Run: func() (trainDelta, error) {
					cl := <-clones
					defer func() { clones <- cl }()
					cl.sync(n, version)
					return cl.present(n, c.Train(i)), nil
				},
			})
		}
		deltas, err := pool.Run(jobs)
		if err != nil {
			return err
		}
		applyDeltas(n, deltas)
		version++
		if opt.OnProgress != nil {
			for i := lo; i < hi; i++ {
				opt.OnProgress(i+1, c.Len())
			}
		}
	}
	return nil
}
