package snn

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/tensor"
)

func excGroup(t *testing.T, n int) *LIFGroup {
	t.Helper()
	g, err := NewLIFGroup(ExcConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLIFConfigValidation(t *testing.T) {
	bad := ExcConfig(0)
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("N=0 must fail")
	}
	bad = ExcConfig(5)
	bad.Thresh = bad.Rest - 1
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("Thresh below Rest must fail")
	}
	bad = ExcConfig(5)
	bad.TCDecay = 0
	if _, err := NewLIFGroup(bad); err == nil {
		t.Fatal("zero TCDecay must fail")
	}
}

func TestLIFIntegratesAndFires(t *testing.T) {
	g := excGroup(t, 1)
	drive := tensor.Vector{3} // mV per step against a 13 mV threshold gap
	fired := false
	for step := 0; step < 50; step++ {
		if len(g.Step(drive)) > 0 {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("neuron never fired under steady suprathreshold drive")
	}
	if g.V[0] != g.Cfg.Reset {
		t.Fatalf("post-spike potential %v, want reset %v", g.V[0], g.Cfg.Reset)
	}
}

func TestLIFStaysQuietWithoutDrive(t *testing.T) {
	g := excGroup(t, 3)
	for step := 0; step < 200; step++ {
		if len(g.Step(tensor.Vector{0, 0, 0})) != 0 {
			t.Fatal("spontaneous spike with no drive")
		}
	}
}

func TestLIFRefractoryBlocksInput(t *testing.T) {
	g := excGroup(t, 1)
	drive := tensor.Vector{20}
	var spikes []int
	for step := 0; step < 12; step++ {
		spikes = append(spikes, len(g.Step(drive)))
	}
	// With Refrac=5 and overwhelming drive, spikes must be ≥5 steps apart.
	last := -10
	for i, s := range spikes {
		if s == 0 {
			continue
		}
		if i-last <= g.Cfg.Refrac {
			t.Fatalf("spikes %d steps apart, refractory is %d", i-last, g.Cfg.Refrac)
		}
		last = i
	}
}

func TestLIFThetaAdaptation(t *testing.T) {
	g := excGroup(t, 1)
	drive := tensor.Vector{20}
	for step := 0; step < 30; step++ {
		g.Step(drive)
	}
	if g.Theta[0] <= 0 {
		t.Fatal("theta should accumulate with spiking")
	}
	// Each spike adds exactly ThetaPlus (decay is negligible at 1e7 ms).
	spikes := math.Round(g.Theta[0] / g.Cfg.ThetaPlus)
	if spikes < 3 {
		t.Fatalf("implausible spike count from theta: %v", spikes)
	}
}

func TestLIFMembraneDecaysTowardRest(t *testing.T) {
	g := excGroup(t, 1)
	// Drive the neuron off rest rather than writing V: a sparse step
	// need not see direct writes to V (see Reset).
	g.Step(tensor.Vector{10})
	if g.V[0] != g.Cfg.Rest+10 {
		t.Fatalf("driven membrane %v, want %v", g.V[0], g.Cfg.Rest+10)
	}
	g.Step(tensor.Vector{0})
	if g.V[0] >= g.Cfg.Rest+10 {
		t.Fatal("membrane should decay toward rest")
	}
	if g.V[0] <= g.Cfg.Rest {
		t.Fatal("membrane should not undershoot rest")
	}
}

func TestThreshScaleConvention(t *testing.T) {
	// The fault hook scales the threshold VALUE (negative voltage), so a
	// scale of 0.8 ("−20%" in the paper) RAISES the firing threshold.
	g := excGroup(t, 2)
	g.ThreshScale[1] = 0.8
	t0 := g.EffectiveThreshold(0)
	t1 := g.EffectiveThreshold(1)
	if !(t1 > t0) {
		t.Fatalf("scale 0.8 should raise the threshold: %v vs %v", t1, t0)
	}
	g.ThreshScale[1] = 1.2
	if !(g.EffectiveThreshold(1) < t0) {
		t.Fatal("scale 1.2 should lower the threshold")
	}
}

func TestInputGainScalesDrive(t *testing.T) {
	g := excGroup(t, 2)
	g.InputGain[0] = 0.5
	g.Step(tensor.Vector{4, 4})
	if !(g.V[0] < g.V[1]) {
		t.Fatalf("gain 0.5 should integrate less: %v vs %v", g.V[0], g.V[1])
	}
}

func TestGroupResetSemantics(t *testing.T) {
	g := excGroup(t, 1)
	drive := tensor.Vector{20}
	for i := 0; i < 20; i++ {
		g.Step(drive)
	}
	theta := g.Theta[0]
	g.Reset()
	if g.V[0] != g.Cfg.Rest {
		t.Fatal("Reset must restore rest potential")
	}
	if g.Theta[0] != theta {
		t.Fatal("Reset must keep learned theta")
	}
	// A layer whose theta can change steps dense, so a sparse step
	// driving nothing after Reset still decays learned theta.
	g.stepSparse(tensor.Vector{0}, nil)
	if want := theta * g.thetaDecay; g.Theta[0] != want || want == theta {
		t.Fatalf("undriven step after Reset left theta %v, want %v", g.Theta[0], want)
	}
}

func smallConfig() DiehlCookConfig {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 20, 20
	cfg.Steps = 100
	return cfg
}

func TestDiehlCookConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.NInh = 10
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("NInh != NExc must fail")
	}
	cfg = smallConfig()
	cfg.Steps = 0
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("zero steps must fail")
	}
	cfg = smallConfig()
	cfg.Norm = 0
	if _, err := NewDiehlCook(cfg); err == nil {
		t.Fatal("zero norm must fail")
	}
}

func TestWeightsNormalizedAtInit(t *testing.T) {
	n, err := NewDiehlCook(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sums := n.W.ColSum()
	for j, s := range sums {
		if math.Abs(s-n.Cfg.Norm) > 1e-6 {
			t.Fatalf("column %d sum %v, want %v", j, s, n.Cfg.Norm)
		}
	}
}

// TestReleasedWeightsAreRedrawn: a network built on a matrix another
// network released draws its initial weights over the whole matrix, so
// no weight crosses networks: it starts where the first network did,
// bit for bit. The pool is drained first and the collector is off, so
// the next network takes the released matrix unless the pool dropped
// it (the race detector drops entries at random); then the test puts
// it back and tries again.
func TestReleasedWeightsAreRedrawn(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for weightPool.Get() != nil {
	}
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, w := n.W.Copy(), n.W
	w.Fill(math.NaN())
	n.Release()
	if n.W != nil {
		t.Fatal("Release left the network its matrix")
	}
	for try := 1; ; try++ {
		m, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e := diffWeights(m.W, want); e >= 0 {
			t.Fatalf("weight %d is %v, a fresh network's %v", e, m.W.Data[e], want.Data[e])
		}
		if m.W == w {
			return
		}
		if try == 100 {
			t.Fatal("no network took the released matrix")
		}
		weightPool.Put(w)
	}
}

func TestSTDPPotentiatesActiveSynapses(t *testing.T) {
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive pixel 0 hard every step; neuron weights for pixel 0 should
	// grow relative to a never-active pixel on neurons that spike.
	before := n.W.Row(0).Copy()
	active := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for step := 0; step < 200; step++ {
		n.Step(active, true)
	}
	grew := false
	for j := range before {
		if n.W.At(0, j) > before[j]+1e-6 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("no potentiation on persistently active synapse")
	}
}

func TestSTDPWeightsStayBounded(t *testing.T) {
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 500; step++ {
		var active []int
		for i := 0; i < cfg.NInput; i++ {
			if rng.Float64() < 0.03 {
				active = append(active, i)
			}
		}
		n.Step(active, true)
	}
	for _, w := range n.W.Data {
		if w < 0 || w > cfg.WMax {
			t.Fatalf("weight %v escaped [0, %v]", w, cfg.WMax)
		}
	}
}

func TestLateralInhibitionSparsifiesActivity(t *testing.T) {
	// With inhibition disabled, many excitatory neurons fire; with the
	// Diehl&Cook lateral inhibition, activity must be sparser.
	run := func(wInh float64) float64 {
		cfg := smallConfig()
		cfg.WInhExc = wInh
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := EncodeCorpus(mnist.Synthetic(5, 3), encoding.NewPoissonEncoder(8), cfg.Steps)
		total := 0.0
		for i := 0; i < c.Len(); i++ {
			counts := n.present(c.Train(i), false)
			for _, c := range counts {
				if c > 0 {
					total++
				}
			}
		}
		return total / float64(c.Len())
	}
	withInh := run(120)
	without := run(0)
	if withInh >= without {
		t.Fatalf("inhibition should reduce distinct active neurons: %v vs %v", withInh, without)
	}
}

// TestRunImageDeterministicGivenSeeds: learning presentations after a
// full normalization each, the per-image protocol TrainWith runs when
// a BeforeImage hook is set, give identical spike counts for
// identical seeds.
func TestRunImageDeterministicGivenSeeds(t *testing.T) {
	cfg := smallConfig()
	images := mnist.Synthetic(3, 3)
	run := func() tensor.Vector {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := EncodeCorpus(images, encoding.NewPoissonEncoder(8), cfg.Steps)
		var last tensor.Vector
		for i := 0; i < c.Len(); i++ {
			n.NormalizeWeights()
			last = n.present(c.Train(i), true)
		}
		return last
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds must give identical spike counts")
		}
	}
}

func TestTrainImprovesOverChance(t *testing.T) {
	cfg := smallConfig()
	cfg.NExc, cfg.NInh = 30, 30
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := EncodeCorpus(mnist.Synthetic(200, 7), encoding.NewPoissonEncoder(42), cfg.Steps)
	res, err := TrainWith(n, c, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.25 {
		t.Fatalf("training accuracy %.3f, want well above 10%% chance", res.Accuracy)
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	cfg := smallConfig()
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := encoding.NewPoissonEncoder(1)
	empty := EncodeCorpus(nil, enc, cfg.Steps)
	if _, err := TrainWith(n, empty, TrainOptions{}); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := EvaluateParallel(n, empty, nil, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("empty evaluation set must fail")
	}
	// A corpus encoded for another presentation length would silently
	// truncate or overrun every presentation.
	short := EncodeCorpus(mnist.Synthetic(2, 3), enc, cfg.Steps-1)
	if _, err := TrainWith(n, short, TrainOptions{}); err == nil {
		t.Fatal("training on a corpus of the wrong length must fail")
	}
	if _, err := EvaluateParallel(n, short, nil, EvalOptions{Workers: 1}); err == nil {
		t.Fatal("evaluating a corpus of the wrong length must fail")
	}
}

func TestAssignLabelsAndClassify(t *testing.T) {
	// Two neurons: neuron 0 fires for class 3, neuron 1 for class 5.
	perImage := []tensor.Vector{
		{5, 0}, {4, 1}, // class 3
		{0, 6}, {1, 7}, // class 5
	}
	labels := []uint8{3, 3, 5, 5}
	as := AssignLabels(perImage, labels, 2)
	if as[0] != 3 || as[1] != 5 {
		t.Fatalf("assignments = %v", as)
	}
	if got := Classify(tensor.Vector{9, 1}, as); got != 3 {
		t.Fatalf("Classify = %d, want 3", got)
	}
	if got := Classify(tensor.Vector{0, 2}, as); got != 5 {
		t.Fatalf("Classify = %d, want 5", got)
	}
	if got := Classify(tensor.Vector{0, 0}, as); got != -1 {
		t.Fatalf("silent network should classify as -1, got %d", got)
	}
}

func TestAssignLabelsSilentNeuron(t *testing.T) {
	perImage := []tensor.Vector{{0, 3}}
	labels := []uint8{2}
	as := AssignLabels(perImage, labels, 2)
	if as[0] != -1 {
		t.Fatalf("silent neuron assignment = %d, want -1", as[0])
	}
}

// Property: theta accumulation equals ThetaPlus × spike count (up to
// the negligible decay), for random drive patterns.
func TestThetaAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewLIFGroup(ExcConfig(1))
		if err != nil {
			return false
		}
		spikes := 0
		for step := 0; step < 100; step++ {
			d := tensor.Vector{rng.Float64() * 10}
			spikes += len(g.Step(d))
		}
		want := float64(spikes) * g.Cfg.ThetaPlus
		return math.Abs(g.Theta[0]-want) < 0.01*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: membrane potential never exceeds the maximum effective
// threshold before reset semantics kick in (spike ⇒ reset).
func TestSpikeImpliesResetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewLIFGroup(InhConfig(4))
		if err != nil {
			return false
		}
		for step := 0; step < 200; step++ {
			d := tensor.NewVector(4)
			for i := range d {
				d[i] = rng.Float64() * 30
			}
			spiked := g.Step(d)
			for _, j := range spiked {
				if g.V[j] != g.Cfg.Reset {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
