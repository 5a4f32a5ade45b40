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

// system is a component inventory, built as a slice. SystemTotals
// must equal its sums bit for bit: it adds the same components in the
// same order without building them.
type system struct {
	Components []Component
}

func (s system) PowerUW() float64 {
	t := 0.0
	for _, c := range s.Components {
		t += c.PowerUW
	}
	return t
}

func (s system) AreaUm2() float64 {
	t := 0.0
	for _, c := range s.Components {
		t += c.AreaUm2
	}
	return t
}

// defendedSystem builds the inventory SystemTotals sums: nNeurons
// neuron-and-driver pairs, the shared bandgap, then one canary pair
// per layer.
func defendedSystem(nNeurons int, sel DefenseSelection) system {
	layers := 0
	if sel.DummyPerLayer && sel.LayerSize > 0 {
		layers = (nNeurons + sel.LayerSize - 1) / sel.LayerSize
	}
	neuron := AHNeuron
	if sel.UpsizedNeurons {
		neuron = AHNeuronUpsized
	}
	if sel.ComparatorNeuron {
		neuron = AHNeuronComparator
	}
	driver := Driver
	if sel.RobustDrivers {
		driver = RobustDriver
	}
	var s system
	for i := 0; i < nNeurons; i++ {
		s.Components = append(s.Components, neuron(), driver())
	}
	if sel.SharedBandgap {
		s.Components = append(s.Components, Bandgap())
	}
	for i := 0; i < layers; i++ {
		s.Components = append(s.Components, neuron(), driver())
	}
	return s
}

// selections are the defense selections D1 uses, plus every defense at
// once.
var selections = []DefenseSelection{
	{},
	{RobustDrivers: true},
	{UpsizedNeurons: true},
	{ComparatorNeuron: true},
	{SharedBandgap: true},
	{DummyPerLayer: true, LayerSize: 100},
	{UpsizedNeurons: true, RobustDrivers: true, SharedBandgap: true, DummyPerLayer: true, LayerSize: 300},
}

// TestSystemTotals: the totals equal the built inventory's sums bit
// for bit, at every scale D1 prints and under every selection.
func TestSystemTotals(t *testing.T) {
	wantP := 10 * (AHNeuron().PowerUW + Driver().PowerUW)
	if p, _ := SystemTotals(10, DefenseSelection{}); math.Abs(p-wantP) > 1e-9 {
		t.Fatalf("system power %v, want %v", p, wantP)
	}
	for _, n := range []int{0, 1, 7, 200, 2000, 20000} {
		for _, sel := range selections {
			ref := defendedSystem(n, sel)
			p, a := SystemTotals(n, sel)
			if math.Float64bits(p) != math.Float64bits(ref.PowerUW()) ||
				math.Float64bits(a) != math.Float64bits(ref.AreaUm2()) {
				t.Fatalf("n=%d %+v: totals %v µW, %v µm²; inventory sums %v µW, %v µm²",
					n, sel, p, a, ref.PowerUW(), ref.AreaUm2())
			}
		}
	}
}

func TestBandgapAreaAt200Neurons(t *testing.T) {
	// §V-B1: "the area overhead incurred by the bandgap circuit is 65%"
	// for the 200-neuron implementation; the capacitors also pull in the
	// driver area, so accept the low 60s.
	overhead := overheadFor(200, DefenseSelection{SharedBandgap: true})
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
	baseP, baseA := SystemTotals(200, DefenseSelection{})
	sysP, sysA := SystemTotals(200, DefenseSelection{DummyPerLayer: true, LayerSize: 100})
	p := 100 * (sysP - baseP) / baseP
	a := 100 * (sysA - baseA) / baseA
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
	_, base := SystemTotals(n, DefenseSelection{})
	_, area := SystemTotals(n, sel)
	return 100 * (area - base) / base
}

// TestSystemTotalsAllocateNothing: the totals are summed without an
// inventory, even at the 20,000-neuron amortization scale.
func TestSystemTotalsAllocateNothing(t *testing.T) {
	for _, sel := range selections {
		if a := testing.AllocsPerRun(20, func() { SystemTotals(20000, sel) }); a != 0 {
			t.Fatalf("%+v: %v allocations, want 0", sel, a)
		}
	}
}
