package cli

import (
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"snnfi/internal/core"
	"snnfi/internal/defense"
	"snnfi/internal/snn"
	"snnfi/internal/xfer"
)

// handScenario is the scenario AttackFlags.Scenario built by hand before
// it compiled through suite.ScenarioSpec, spelled out so that
// -cache-dir and -store contents written since keep their keys.
func handScenario(attack int, changes, fractions, vdds []float64, def string) *core.Scenario {
	scn := &core.Scenario{Detector: defense.NewDetector(xfer.IAF)}
	switch attack {
	case 1, 4:
		scn.Attack = core.AttackID(attack)
		scn.Axes = core.Axes{ChangesPc: changes}
	case 2, 3:
		scn.Attack = core.AttackID(attack)
		scn.Axes = core.Axes{ChangesPc: changes, FractionsPc: fractions}
	case 5:
		scn.Attack = core.Attack5
		scn.Axes = core.Axes{VDDs: vdds, Kind: xfer.IAF}
	}
	switch def {
	case "robust-driver":
		scn.Defenses = []core.Hardening{defense.RobustDriver{ResidualPc: 0.1}}
	case "bandgap":
		scn.Defenses = []core.Hardening{defense.BandgapThreshold{Kind: xfer.IAF}}
	case "sizing":
		scn.Defenses = []core.Hardening{defense.Sizing{WLMultiple: 32}}
	case "comparator":
		scn.Defenses = []core.Hardening{defense.ComparatorNeuron{}}
	}
	return scn
}

// TestAttackFlagsScenarioKeys: for every attack and -defense value the
// flags compile to a scenario with the hand-built scenario's cell keys,
// in order.
func TestAttackFlagsScenarioKeys(t *testing.T) {
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh, cfg.Steps = 10, 10, 20
	e, err := core.NewExperiment("", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	changes, fractions, vdds := []float64{-20, 10}, []float64{50, 100}, []float64{0.8, 1.2}
	for attack := 1; attack <= 5; attack++ {
		for _, def := range []string{"none", "robust-driver", "bandgap", "sizing", "comparator"} {
			t.Run(fmt.Sprintf("attack%d/%s", attack, def), func(t *testing.T) {
				fs := flag.NewFlagSet("t", flag.ContinueOnError)
				a := AddAttackFlags(fs)
				if err := fs.Parse([]string{"-attack", strconv.Itoa(attack), "-defense", def,
					"-change", "-20,10", "-fraction", "50,100", "-vdd", "0.8,1.2"}); err != nil {
					t.Fatal(err)
				}
				scn, err := a.Scenario()
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.ScenarioKeys(scn)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.ScenarioKeys(handScenario(attack, changes, fractions, vdds, def))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("cell keys %v, want the hand-built scenario's %v", got, want)
				}
			})
		}
	}
}
