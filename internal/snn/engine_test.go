package snn

// Tests for the intra-cell parallel inference engine: the frozen
// presentation, the per-image seeding contract, worker-count
// bit-identity, frozen-copy pool hygiene, and the shared decay table's
// concurrent growth. The worker-determinism and decay-race tests here are the
// ones CI runs under -race.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/obs"
	"snnfi/internal/tensor"
)

// trainedEngine trains a tiny network and returns it plus the corpus
// the cell trained on.
func trainedEngine(t *testing.T) (*DiehlCook, *Corpus) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := EncodeCorpus(mnist.Synthetic(40, 7), encoding.NewPoissonEncoder(42), cfg.Steps)
	if _, err := TrainWith(n, c, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	return n, c
}

func sameCounts(t *testing.T, label string, got, want []tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d count vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: image %d neuron %d: count %g, want %g", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvaluateParallelBitIdentical is the engine's acceptance
// contract: counts and accuracy are bit-identical at 1, 2 and 4
// workers.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	p, c := trainedEngine(t)
	assignments := make([]int, p.Cfg.NExc)
	for j := range assignments {
		assignments[j] = j % 10
	}

	refCounts, err := CountsParallel(p, c, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refAcc, err := EvaluateParallel(p, c, assignments, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		counts, err := CountsParallel(p, c, EvalOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, "workers", counts, refCounts)
		acc, err := EvaluateParallel(p, c, assignments, EvalOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if acc != refAcc {
			t.Fatalf("workers=%d: accuracy %v, want %v", w, acc, refAcc)
		}
	}
}

// TestTrainWorkerCountInvariant: a whole training cell — serial
// learning pass plus parallel assignment pass — produces bit-identical
// results at any worker count. The learning pass is covered through
// the trained weights and thresholds, which the assignment pass reads
// concurrently. Run under -race in CI.
func TestTrainWorkerCountInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	c := EncodeCorpus(mnist.Synthetic(30, 7), encoding.NewPoissonEncoder(42), cfg.Steps)

	run := func(workers int) (*TrainResult, *DiehlCook) {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TrainWith(n, c, TrainOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, n
	}
	ref, refNet := run(1)
	for _, w := range []int{2, 4} {
		res, net := run(w)
		if res.Accuracy != ref.Accuracy || res.TotalSpikes != ref.TotalSpikes {
			t.Fatalf("workers=%d: accuracy/spikes %v/%v, want %v/%v",
				w, res.Accuracy, res.TotalSpikes, ref.Accuracy, ref.TotalSpikes)
		}
		for j := range ref.Assignments {
			if res.Assignments[j] != ref.Assignments[j] {
				t.Fatalf("workers=%d: assignment of neuron %d differs", w, j)
			}
		}
		sameCounts(t, "train", res.PerImage, ref.PerImage)
		sameLearned(t, fmt.Sprintf("workers=%d", w), net, refNet)
	}
}

// TestWorkCountsPublished: TrainWith adds its learning pass's work
// counts and its assignment pass's to the registry, and they are exact:
// the same at any worker count, and the assignment pass's equal what
// CountsParallel publishes for the trained network on its own.
func TestWorkCountsPublished(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	c := EncodeCorpus(mnist.Synthetic(20, 7), encoding.NewPoissonEncoder(42), cfg.Steps)
	counters := func(reg *obs.Registry) workCounts {
		var w workCounts
		for i, name := range workNames {
			w[i] = reg.Counter(name).Value()
		}
		return w
	}
	var want workCounts
	for k, workers := range []int{1, 3} {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Inh.ThreshScale[0] = 0.8 // some images leave the events for the dense pass
		reg := obs.NewRegistry()
		if _, err := TrainWith(n, c, TrainOptions{Workers: workers, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		got := counters(reg)
		if k == 0 {
			want = got
			if got[inhEvent] == 0 || got[inhDense] == 0 || got[stdpWalk] == 0 || got[normWalk] == 0 {
				t.Fatalf("counts %v: a path the run takes counted nothing", got)
			}
		} else if got != want {
			t.Fatalf("workers=%d: counts %v, want %v", workers, got, want)
		}
		learned := n.work()
		frozen := obs.NewRegistry()
		if _, err := CountsParallel(n, c, EvalOptions{Workers: workers, Obs: frozen}); err != nil {
			t.Fatal(err)
		}
		learned.add(counters(frozen))
		if learned != got {
			t.Fatalf("workers=%d: learning pass %v plus a read-only pass make %v, TrainWith published %v", workers, n.work(), learned, got)
		}
	}
}

// sameLearned fails unless got's weights and excitatory thresholds
// equal want's bit for bit.
func sameLearned(t *testing.T, label string, got, want *DiehlCook) {
	t.Helper()
	for e, w := range want.W.Data {
		if math.Float64bits(got.W.Data[e]) != math.Float64bits(w) {
			t.Fatalf("%s: trained weight %d is %g, want %g", label, e, got.W.Data[e], w)
		}
	}
	for j, th := range want.Exc.Theta {
		if math.Float64bits(got.Exc.Theta[j]) != math.Float64bits(th) {
			t.Fatalf("%s: trained theta %d is %g, want %g", label, j, got.Exc.Theta[j], th)
		}
	}
}

// TestTrainNormalizationPolicies pins the learning pass's two
// normalization policies against hand-written loops. With a
// BeforeImage hook, even a no-op one, every image runs after a full
// NormalizeWeights (the hook may write W behind the dirty-column
// tracking's back). Without one, a single full normalization opens
// the pass and TrainImage renormalizes only the dirty columns. Each
// policy must end with the same weight and theta bits, and the same
// assignment-pass spike total, as its hand loop.
func TestTrainNormalizationPolicies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	c := EncodeCorpus(mnist.Synthetic(24, 3), encoding.NewPoissonEncoder(7), cfg.Steps)
	network := func() *DiehlCook {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	spikes := func(n *DiehlCook) float64 {
		counts, err := CountsParallel(n, c, EvalOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, cnt := range counts {
			total += cnt.Sum()
		}
		return total
	}
	for _, tc := range []struct {
		name string
		opt  TrainOptions
		hand func(n *DiehlCook)
	}{
		{"hook", TrainOptions{BeforeImage: func(int) {}}, func(n *DiehlCook) {
			for i := 0; i < c.Len(); i++ {
				n.NormalizeWeights()
				n.present(c.Train(i), true)
			}
		}},
		{"no-hook", TrainOptions{}, func(n *DiehlCook) {
			n.NormalizeWeights()
			for i := 0; i < c.Len(); i++ {
				n.TrainImage(c.Train(i))
			}
		}},
	} {
		tc.opt.Workers = 2
		got := network()
		res, err := TrainWith(got, c, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		want := network()
		tc.hand(want)
		sameLearned(t, tc.name, got, want)
		if ws := spikes(want); res.TotalSpikes != ws {
			t.Fatalf("%s: TotalSpikes %v, want %v", tc.name, res.TotalSpikes, ws)
		}
	}
}

// TestInferenceMatchesStepKernel anchors the frozen presentation
// against equiv_test.go's dense reference network with adaptation
// frozen (ThetaPlus 0, theta decay 1): on a trained network, theta
// nonzero, under each fault configuration of the dense-reference test,
// the frozen copy CountsParallel presents with must produce
// bit-identical excitatory and inhibitory spikes, step by step, and
// CountsParallel the reference's per-image counts.
func TestInferenceMatchesStepKernel(t *testing.T) {
	for _, fc := range faultCases {
		t.Run(fc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NExc, cfg.NInh = 20, 20
			cfg.Steps = 80
			cfg.RestSteps = 4
			n, err := NewDiehlCook(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fc.apply(n)
			c := EncodeCorpus(mnist.Synthetic(5, 3), encoding.NewPoissonEncoder(9), cfg.Steps)
			if _, err := TrainWith(n, c, TrainOptions{}); err != nil {
				t.Fatal(err)
			}
			if !anyNonzero(n.Exc.Theta) {
				t.Fatal("training left theta at zero; the comparison would not cover it")
			}
			counts, err := CountsParallel(n, c, EvalOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}

			ref := newRefNet(t, cfg)
			ref.w = n.W.Copy()
			copy(ref.exc.theta, n.Exc.Theta)
			ref.exc.cfg.ThetaPlus, ref.exc.thDecay = 0, 1
			fc.faultInh(ref.inh.tscale, ref.inh.gain)
			ref.exc.gain.Fill(fc.excGain)
			ref.driveScale = fc.driveScale

			f := acquireFrozen(n)
			defer releaseFrozen(f)
			f.net.clearWork()
			var seen pathSeen
			for i := 0; i < c.Len(); i++ {
				tr := c.Train(i)
				f.net.ResetState()
				ref.reset()
				want := tensor.NewVector(cfg.NExc)
				for step := 0; step < tr.Steps()+cfg.RestSteps; step++ {
					var spikes []int
					if step < tr.Steps() {
						spikes = tr.Step(step)
					}
					got := stepObserved(f.net, spikes, false, &seen)
					rs := ref.step(spikes, false)
					if !sameInts(got, rs) || !sameInts(f.net.prevInh, ref.prevInh) {
						t.Fatalf("image %d step %d: frozen spikes exc %v inh %v, reference exc %v inh %v",
							i, step, got, f.net.prevInh, rs, ref.prevInh)
					}
					for _, j := range rs {
						want[j]++
					}
				}
				if want.Sum() == 0 {
					t.Fatalf("image %d: silent presentation makes the comparison vacuous", i)
				}
				sameCounts(t, fmt.Sprintf("image %d", i), counts[i:i+1], []tensor.Vector{want})
			}
			// The STDP and normalization paths need learning steps.
			fc.wants.allActive, fc.wants.partialDep = false, false
			fc.wants.maskedPot, fc.wants.denseNorm = false, false
			fc.checkPaths(t, seen)
			fc.checkEventOnly(t, f.net.work())
		})
	}
}

// anyNonzero reports whether some element of v is nonzero.
func anyNonzero(v tensor.Vector) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}

// TestFrozenPassLeavesNetworkUnchanged: the read-only passes write no
// parameter of the trained network — W, both layers' theta, threshold
// scales and input gains, and the drive scale keep their bits — and a
// frozen copy's theta keeps the trained bits through its
// presentations.
func TestFrozenPassLeavesNetworkUnchanged(t *testing.T) {
	n, c := trainedEngine(t)
	if !anyNonzero(n.Exc.Theta) {
		t.Fatal("training left theta at zero; the check would not cover it")
	}
	n.Exc.ThreshScale[3] = 0.8
	n.Inh.InputGain[5] = 1.1
	n.InputDriveScale = 0.9
	params := func(net *DiehlCook) []tensor.Vector {
		return []tensor.Vector{
			tensor.Vector(net.W.Data), net.Exc.Theta, net.Exc.ThreshScale, net.Exc.InputGain,
			net.Inh.Theta, net.Inh.ThreshScale, net.Inh.InputGain, {net.InputDriveScale},
		}
	}
	var before []tensor.Vector
	for _, v := range params(n) {
		before = append(before, v.Copy())
	}
	assignments := make([]int, n.Cfg.NExc)
	for j := range assignments {
		assignments[j] = j % 10
	}
	if _, err := CountsParallel(n, c, EvalOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateParallel(n, c, assignments, EvalOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	f := newFrozenCopy(n)
	for i := 0; i < c.Len(); i++ {
		f.present(c.Train(i))
	}
	for k, v := range params(n) {
		for i := range v {
			if !sameFloat(v[i], before[k][i]) {
				t.Fatalf("parameter %d element %d is %v after the frozen passes, want %v", k, i, v[i], before[k][i])
			}
		}
	}
	for i, th := range f.net.Exc.Theta {
		if !sameFloat(th, n.Exc.Theta[i]) {
			t.Fatalf("frozen copy's theta %d is %v after presenting, want the trained %v", i, th, n.Exc.Theta[i])
		}
	}
}

// TestStatePoolObservationFree: a reused frozen copy must present
// exactly like a fresh one. A copy of another, faulted network is
// dirtied with a real presentation and poisoned step state, then
// seeded into the pool next to a copy sized for a 33-neuron network;
// the pooled pass must still match fresh-copy presentations.
func TestStatePoolObservationFree(t *testing.T) {
	n, c := trainedEngine(t)

	// Fresh-copy reference, bypassing the pool entirely.
	want := make([]tensor.Vector, c.Len())
	for i := range want {
		want[i] = newFrozenCopy(n).present(c.Train(i)).Copy()
	}

	other, err := NewDiehlCook(n.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	other.Inh.ThreshScale.Fill(1.6) // fires from rest: Reset wakes the layer
	other.Exc.Theta.Fill(3)
	other.Exc.InputGain.Fill(1.4)
	other.InputDriveScale = 1.3
	dirty := newFrozenCopy(other)
	poison := func() {
		dirty.present(c.Train(3)) // leave real dynamics behind
		net := dirty.net
		net.Exc.V.Fill(1e9)
		net.Inh.V.Fill(-1e9)
		for i := range net.Exc.refrac {
			net.Exc.refrac[i] = 99
		}
		net.Exc.Trace.Fill(0.5)
		net.prevExc = append(net.prevExc[:0], 0, 1, 2)
		net.prevInh = append(net.prevInh[:0], 3, 4)
		net.counts.Fill(5)
	}
	// What a pool hit does with it: refreeze, then present.
	poison()
	if f := dirty.refreeze(n); f != dirty {
		t.Fatal("a pooled copy of the network's sizes was not reused")
	}
	sameCounts(t, "refrozen", []tensor.Vector{dirty.present(c.Train(0)).Copy()}, want[:1])
	dirty.freeze(other)
	poison()

	bigCfg := n.Cfg
	bigCfg.NExc, bigCfg.NInh = 33, 33
	big, err := NewDiehlCook(bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	bigCopy := newFrozenCopy(big)
	bigCopy.present(c.Train(3))
	if f := bigCopy.refreeze(n); f == bigCopy || len(f.net.counts) != n.Cfg.NExc {
		t.Fatal("a pooled copy of other sizes was reused")
	}

	// Which pooled copy a worker's Get returns is up to sync.Pool.
	frozenPool.Put(bigCopy)
	frozenPool.Put(dirty)
	got, err := CountsParallel(n, c, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "pooled", got, want)
}

// TestPreDecayTableConcurrentGrowth is the decay-table race
// regression: many goroutines growing and reading the shared table
// concurrently (as parallel campaign cells do) must always observe
// exact iterated-product values. Run under -race in CI.
func TestPreDecayTableConcurrentGrowth(t *testing.T) {
	want := make([]float64, 2048)
	want[0] = 1
	for i := 1; i < len(want); i++ {
		want[i] = want[i-1] * preTraceDecayPerMs
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1; k < len(want); k += 7 + g {
				tab := preDecayTable(k)
				if len(tab) <= k {
					t.Errorf("table of len %d cannot cover %d", len(tab), k)
					return
				}
				if tab[k] != want[k] {
					t.Errorf("decayPow[%d] = %g, want %g", k, tab[k], want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTrajectoryConcurrentBuild: layers seeding at once from
// constants no layer has used share one trajectory, built once, whose
// entries are the iterated update's bits up to its fixed point. Run
// under -race in CI.
func TestTrajectoryConcurrentBuild(t *testing.T) {
	const rest, reset = -61.5, -47.25
	decay := math.Exp(-1 / 7.5)
	want := []float64{reset}
	for {
		x := rest + (want[len(want)-1]-rest)*decay
		if math.Float64bits(x) == math.Float64bits(want[len(want)-1]) {
			break
		}
		want = append(want, x)
	}
	got := make([]*trajectory, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = trajectoryOf(rest, reset, decay)
		}()
	}
	wg.Wait()
	for g, tr := range got {
		if tr != got[0] {
			t.Fatalf("goroutine %d got its own trajectory", g)
		}
	}
	if len(got[0].v) != len(want) {
		t.Fatalf("trajectory of %d entries, want %d", len(got[0].v), len(want))
	}
	for k, x := range want {
		if math.Float64bits(got[0].v[k]) != math.Float64bits(x) {
			t.Fatalf("entry %d is %v, want %v", k, got[0].v[k], x)
		}
	}
}

// TestPresentImageAllocationFree: once a frozen copy is warm,
// presenting an image allocates nothing — what keeps a full matrix's
// read-only phases allocation-flat.
func TestPresentImageAllocationFree(t *testing.T) {
	n, c := trainedEngine(t)
	f := acquireFrozen(n)
	defer releaseFrozen(f)
	f.present(c.Train(0)) // warm buffers
	avg := testing.AllocsPerRun(50, func() {
		f.present(c.Train(1))
	})
	if avg > 0.5 {
		t.Fatalf("a frozen presentation allocates %.1f objects per image, want 0", avg)
	}
}

// TestNormalizeWeightsAllocationFree: the full normalization, which
// TrainWith runs after every BeforeImage hook, rescales into the
// network's own scratch and allocates nothing.
func TestNormalizeWeightsAllocationFree(t *testing.T) {
	n, err := NewDiehlCook(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, n.NormalizeWeights); avg != 0 {
		t.Fatalf("NormalizeWeights allocates %.1f objects per call, want 0", avg)
	}
}

// TestImageSeedProperties: presentation seeds are deterministic,
// distinct across images, and independent of worker scheduling by
// construction (pure function of base and index).
func TestImageSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 500; i++ {
		s := ImageSeed(42, i)
		if s != ImageSeed(42, i) {
			t.Fatal("ImageSeed is not deterministic")
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("images %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if ImageSeed(42, 0) == ImageSeed(43, 0) {
		t.Fatal("base seed does not discriminate")
	}
}

// TestEvaluateParallelSpeedup is the wall-clock bar: at 4 workers the
// evaluation pass must run ≥3× faster than serial on a ≥4-core
// machine (the images are independent, so near-linear scaling is
// expected). Timing tests are skipped in -short and on small hosts.
func TestEvaluateParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a CPU-bound speedup, have %d", runtime.GOMAXPROCS(0))
	}
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 40, 40
	cfg.Steps = 150
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := EncodeCorpus(mnist.Synthetic(256, 3), encoding.NewPoissonEncoder(42), cfg.Steps)
	assignments := make([]int, cfg.NExc)
	for j := range assignments {
		assignments[j] = j % 10
	}
	measure := func(workers int) time.Duration {
		start := time.Now()
		if _, err := EvaluateParallel(n, c, assignments, EvalOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(4) // warm the pool and caches
	serial := measure(1)
	parallel := measure(4)
	if float64(serial)/float64(parallel) < 3 {
		t.Fatalf("4 workers took %v, serial took %v — want ≥3× speedup", parallel, serial)
	}
}

// TestReseedReproducesStream: in-place reseeding replays exactly the
// stream a fresh encoder with that seed would produce (EncodeCorpus
// reseeds one encoder per image), and Seed tracks the reseed for the
// per-image derivation.
func TestReseedReproducesStream(t *testing.T) {
	images := mnist.Synthetic(1, 3)
	fresh := encoding.NewPoissonEncoder(77)
	fresh.Begin(&images[0])
	reused := encoding.NewPoissonEncoder(5)
	reused.Begin(&images[0])
	for step := 0; step < 10; step++ {
		reused.EncodeStep()
	}
	reused.Reseed(77)
	if reused.Seed() != 77 {
		t.Fatalf("Seed() = %d after Reseed(77)", reused.Seed())
	}
	reused.Begin(&images[0])
	for step := 0; step < 50; step++ {
		a, b := fresh.EncodeStep(), reused.EncodeStep()
		if len(a) != len(b) {
			t.Fatalf("step %d: %d vs %d spikes", step, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("step %d: spike %d differs", step, k)
			}
		}
	}
}
