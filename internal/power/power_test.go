package power

import (
	"math"
	"testing"
)

func TestComponentAnchors(t *testing.T) {
	// The paper's reported per-component overheads.
	base := AHNeuron()
	if r := AHNeuronUpsized().PowerUW / base.PowerUW; math.Abs(r-1.25) > 1e-9 {
		t.Fatalf("upsized neuron power ratio %v, want 1.25 (paper: 25%%)", r)
	}
	if r := AHNeuronComparator().PowerUW / base.PowerUW; math.Abs(r-1.11) > 1e-9 {
		t.Fatalf("comparator neuron power ratio %v, want 1.11 (paper: 11%%)", r)
	}
	if r := RobustDriver().PowerUW / Driver().PowerUW; math.Abs(r-1.03) > 1e-9 {
		t.Fatalf("robust driver power ratio %v, want 1.03 (paper: 3%%)", r)
	}
}

func TestNeuronAreaDominatedByCapacitors(t *testing.T) {
	// The paper's "negligible area overhead" claims rest on this.
	base := AHNeuron()
	up := AHNeuronUpsized()
	if inc := (up.AreaUm2 - base.AreaUm2) / base.AreaUm2; inc > 0.02 {
		t.Fatalf("upsized neuron area +%.1f%%, paper calls it negligible", 100*inc)
	}
	cmp := AHNeuronComparator()
	if inc := (cmp.AreaUm2 - base.AreaUm2) / base.AreaUm2; inc > 0.02 {
		t.Fatalf("comparator neuron area +%.1f%%, paper calls it negligible", 100*inc)
	}
}

func TestSystemTotals(t *testing.T) {
	s := BaselineSystem(10)
	if len(s.Components) != 20 {
		t.Fatalf("10 neurons + 10 drivers, got %d components", len(s.Components))
	}
	wantP := 10 * (AHNeuron().PowerUW + Driver().PowerUW)
	if math.Abs(s.PowerUW()-wantP) > 1e-9 {
		t.Fatalf("system power %v, want %v", s.PowerUW(), wantP)
	}
	if s.AreaUm2() <= 0 {
		t.Fatal("system area must be positive")
	}
}

func TestBandgapAreaAt200Neurons(t *testing.T) {
	// §V-B1: "the area overhead incurred by the bandgap circuit is 65%"
	// for the 200-neuron implementation; the capacitors also pull in the
	// driver area, so accept the low 60s.
	base := BaselineSystem(200)
	sys := DefendedSystem(200, DefenseSelection{SharedBandgap: true})
	overhead := 100 * (sys.AreaUm2() - base.AreaUm2()) / base.AreaUm2()
	if overhead < 55 || overhead > 70 {
		t.Fatalf("bandgap area overhead %.1f%%, want ≈65%%", overhead)
	}
}

func TestBandgapAmortizesWithScale(t *testing.T) {
	// §V-B1: "this can be significantly reduced ... if the SNNs are
	// implemented with 10s of thousands of neurons".
	small := overheadFor(200, DefenseSelection{SharedBandgap: true})
	large := overheadFor(20000, DefenseSelection{SharedBandgap: true})
	if large > small/50 {
		t.Fatalf("bandgap overhead should amortize: %.2f%% → %.2f%%", small, large)
	}
}

func TestDummyNeuronAboutOnePercent(t *testing.T) {
	// §V-C: ~1% power and area each for the 100-neuron-per-layer system.
	base := BaselineSystem(200)
	sys := DefendedSystem(200, DefenseSelection{DummyPerLayer: true, LayerSize: 100})
	p := 100 * (sys.PowerUW() - base.PowerUW()) / base.PowerUW()
	a := 100 * (sys.AreaUm2() - base.AreaUm2()) / base.AreaUm2()
	if math.Abs(p-1) > 0.3 || math.Abs(a-1) > 0.3 {
		t.Fatalf("dummy overhead power %.2f%%, area %.2f%%, want ≈1%%", p, a)
	}
}

func TestOverheadTableRows(t *testing.T) {
	rows := OverheadTable(200, 100)
	if len(rows) != 5 {
		t.Fatalf("table has %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.PowerPc < 0 || r.AreaPc < 0 {
			t.Fatalf("defense %s claims negative overhead: %v", r.Defense, r)
		}
		if r.String() == "" {
			t.Fatal("empty row rendering")
		}
	}
	// Sizing is the most power-hungry defense (paper: 25% per neuron).
	var sizing, robust OverheadRow
	for _, r := range rows {
		switch r.Defense {
		case "transistor-sizing-32x":
			sizing = r
		case "robust-current-driver":
			robust = r
		}
	}
	if sizing.PowerPc <= robust.PowerPc {
		t.Fatalf("sizing (%v) should cost more power than the robust driver (%v)", sizing.PowerPc, robust.PowerPc)
	}
}

func overheadFor(n int, sel DefenseSelection) float64 {
	base := BaselineSystem(n)
	sys := DefendedSystem(n, sel)
	return 100 * (sys.AreaUm2() - base.AreaUm2()) / base.AreaUm2()
}

// TestSystemsAllocateOnce: each inventory is built at its final length
// in one allocation, even at the 20,000-neuron amortization scale,
// where growing by doubling would copy it about 16 times.
func TestSystemsAllocateOnce(t *testing.T) {
	sels := []DefenseSelection{
		{SharedBandgap: true},
		{UpsizedNeurons: true, RobustDrivers: true, SharedBandgap: true, DummyPerLayer: true, LayerSize: 300},
	}
	if a := testing.AllocsPerRun(20, func() { BaselineSystem(20000) }); a != 1 {
		t.Fatalf("BaselineSystem: %v allocations, want 1", a)
	}
	for _, sel := range sels {
		sys := DefendedSystem(20000, sel)
		if len(sys.Components) != cap(sys.Components) {
			t.Fatalf("%+v: %d components in a capacity of %d", sel, len(sys.Components), cap(sys.Components))
		}
		if a := testing.AllocsPerRun(20, func() { DefendedSystem(20000, sel) }); a != 1 {
			t.Fatalf("%+v: %v allocations, want 1", sel, a)
		}
	}
}
