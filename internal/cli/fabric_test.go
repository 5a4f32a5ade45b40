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
	keys := func(scn *core.Scenario) ([]string, error) {
		a, err := e.AuditScenario(scn, func(string) bool { return false })
		if err != nil {
			return nil, err
		}
		var keys []string
		for _, c := range a.Cells {
			keys = append(keys, c.Key)
		}
		return keys, nil
	}
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
				got, err := keys(scn)
				if err != nil {
					t.Fatal(err)
				}
				want, err := keys(handScenario(attack, changes, fractions, vdds, def))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) < 2 || !reflect.DeepEqual(got, want) {
					t.Fatalf("cell keys %v, want the hand-built scenario's %v", got, want)
				}
			})
		}
	}
}

// TestStartChecksStoreProtocol: a session refuses a -store that speaks
// any other protocol, v1 and v2 included (a v1 store would fail every
// batch lookup, and the campaign would recompute every cell without a
// word; the same exact match makes a v2 client, which lists a tier,
// refuse a store of this version at start), starts against a store of
// this version, and only warns about a store that does not answer,
// whose lookups degrade to misses.
func TestStartChecksStoreProtocol(t *testing.T) {
	stub := func(protocol string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintf(w, `{"ok":true,"protocol":%q}`, protocol)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	srv, err := fabric.NewServer(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	current := httptest.NewServer(srv.Handler())
	defer current.Close()
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
	for _, old := range []string{"snnfi-store-v1", "snnfi-store-v2"} {
		if err := start(stub(old).URL); err == nil ||
			!strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), runner.StoreProtocol) {
			t.Fatalf("%s store: err = %v, want a refusal naming both protocols", old, err)
		}
	}
	if err := start(current.URL + "/"); err != nil {
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
