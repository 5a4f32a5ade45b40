package core

import "testing"

func TestWeightFaultSpecValidation(t *testing.T) {
	if err := (WeightFaultSpec{Scale: 0, Fraction: 0.5}).Validate(); err == nil {
		t.Fatal("zero scale must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.5, Fraction: 2}).Validate(); err == nil {
		t.Fatal("fraction > 1 must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.5, Fraction: 0.5, EveryNImages: -1}).Validate(); err == nil {
		t.Fatal("negative cadence must fail")
	}
	if err := (WeightFaultSpec{Scale: 0.7, Fraction: 0.3, EveryNImages: 10}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestLearningRateFaultSpecValidation(t *testing.T) {
	if err := (LearningRateFaultSpec{Scale: -1}).Validate(); err == nil {
		t.Fatal("negative scale must fail")
	}
	if err := (LearningRateFaultSpec{Scale: 0}).Validate(); err != nil {
		t.Fatal("zero scale (frozen learning) is a valid fault")
	}
}

// extensionPoints runs one extension scenario.
func extensionPoints(t *testing.T, e *Experiment, s *Scenario) []SweepPoint {
	t.Helper()
	pts, err := e.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestWeightFaultOneShotMild(t *testing.T) {
	// A one-shot pre-training drift is absorbed by STDP + normalization:
	// the fault hits random initial weights that learning overwrites.
	e := testExperiment(t, 200)
	res := extensionPoints(t, e, &Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0.7, Fraction: 0.3, Seed: 5}}})[0]
	if res.RelChangePc < -35 {
		t.Fatalf("one-shot weight drift degraded %+.1f%%, expected mild", res.RelChangePc)
	}
}

func TestWeightFaultPersistentWorseThanOneShot(t *testing.T) {
	e := testExperiment(t, 200)
	pts := extensionPoints(t, e, &Scenario{WeightFaults: []WeightFaultSpec{
		{Scale: 0.5, Fraction: 0.5, Seed: 5},
		{Scale: 0.5, Fraction: 0.5, EveryNImages: 10, Seed: 5},
	}})
	once, persistent := pts[0], pts[1]
	// Re-applied drift keeps destroying what STDP learns; it must not do
	// better than the one-shot upset (generous margin for seed noise).
	if persistent.RelChangePc > once.RelChangePc+10 {
		t.Fatalf("persistent drift (%+.1f%%) should not beat one-shot (%+.1f%%)",
			persistent.RelChangePc, once.RelChangePc)
	}
}

func TestLearningRateFreezeDegrades(t *testing.T) {
	// Freezing STDP entirely leaves random weights: accuracy must fall
	// well below the trained baseline.
	e := testExperiment(t, 200)
	res := extensionPoints(t, e, &Scenario{LearningRateFaults: []LearningRateFaultSpec{{Scale: 0}}})[0]
	if res.RelChangePc > -20 {
		t.Fatalf("frozen learning degraded only %+.1f%%, expected substantial loss", res.RelChangePc)
	}
}

// TestLearningRateNominalIsNoOp: training under rates scaled by 1
// reproduces the attack-free network bit for bit — the fact that lets
// the nominal spec be keyed as the baseline cell. The spec trains
// directly here, past the cache that would serve the baseline.
func TestLearningRateNominalIsNoOp(t *testing.T) {
	e := testExperiment(t, 200)
	got, err := e.compute(LearningRateFaultSpec{Scale: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.compute((*FaultPlan)(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accuracy != want.Accuracy || got.TotalSpikes != want.TotalSpikes {
		t.Fatalf("scale 1 trained %v/%v, the baseline %v/%v", got.Accuracy, got.TotalSpikes, want.Accuracy, want.TotalSpikes)
	}
}

// TestNominalExtensionSpecsTrainNothing: a spec that leaves the network
// nominal — learning rates ×1, a weight drift ×1, a drift fraction that
// rounds to no synapse — is the baseline cell, so after the baseline
// it trains nothing and scores exactly 0%.
func TestNominalExtensionSpecsTrainNothing(t *testing.T) {
	e := tinyExperiment(t, 20)
	if _, err := e.Baseline(); err != nil {
		t.Fatal(err)
	}
	pts := extensionPoints(t, e, &Scenario{LearningRateFaults: []LearningRateFaultSpec{{Scale: 1}}})
	pts = append(pts, extensionPoints(t, e, &Scenario{WeightFaults: []WeightFaultSpec{
		{Scale: 1, Fraction: 0.5, EveryNImages: 5, Seed: 3},
		{Scale: 0.5, Fraction: 1e-9, Seed: 3},
	}})...)
	if got := e.TrainCount(); got != 1 {
		t.Fatalf("nominal specs trained %d networks after the baseline, want 0", got-1)
	}
	for i, p := range pts {
		if p.RelChangePc != 0 || p.Result.Accuracy != p.Baseline {
			t.Fatalf("nominal spec %d scored %+v, want the baseline", i, p)
		}
	}
}
