package cli

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"snnfi/internal/core"
	"snnfi/internal/defense"
	"snnfi/internal/fabric"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
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

// TestStartChecksStoreProtocol: a session refuses a -store that speaks
// another protocol (a v1 store would fail every batch lookup, and the
// campaign would recompute every cell without a word), starts against
// a store of this version, and only warns about a store that does not
// answer, whose lookups degrade to misses.
func TestStartChecksStoreProtocol(t *testing.T) {
	v1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"ok":true,"protocol":"snnfi-store-v1"}`)
	}))
	defer v1.Close()
	srv, err := fabric.NewServer(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	v2 := httptest.NewServer(srv.Handler())
	defer v2.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()

	start := func(store string) error {
		f := AddFlagsTo(flag.NewFlagSet("t", flag.ContinueOnError), Store)
		f.Store = store
		s, err := f.Start("test")
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := start(v1.URL); err == nil ||
		!strings.Contains(err.Error(), "snnfi-store-v1") || !strings.Contains(err.Error(), runner.StoreProtocol) {
		t.Fatalf("v1 store: err = %v, want a refusal naming both protocols", err)
	}
	if err := start(v2.URL + "/"); err != nil {
		t.Fatalf("%s store: %v", runner.StoreProtocol, err)
	}
	var warn bytes.Buffer
	if err := checkStore(&warn, "test", down.URL); err != nil {
		t.Fatalf("unreachable store: %v, want only a warning", err)
	}
	if !strings.Contains(warn.String(), "test: warning: store "+down.URL) {
		t.Fatalf("unreachable store warning = %q", warn.String())
	}
}
