package suite

import (
	"strings"
	"testing"

	"snnfi/internal/core"
)

// TestAuditCells: the suite-level audit enumerates exactly the network
// cells the scenario and extension entries would compute — the shared
// baseline once and first, then entry order — attributes them
// correctly, dedups cells shared across entries (a nominal extension
// spec is the baseline), and agrees with the scenario audit on every
// content address. Nothing trains.
func TestAuditCells(t *testing.T) {
	doc := `{
	  "name": "audit",
	  "network": {"images": 8, "neurons": 16, "steps": 40},
	  "entries": [
	    {"id": "C1", "circuit": [{"recipe": "iaf-threshold-vs-vdd", "xs": [1.0]}]},
	    {"id": "S1", "scenario": {"attack": 3, "changes_pc": [-20, 10]}},
	    {"id": "S2", "scenario": {"attack": 3, "changes_pc": [10, 20]}},
	    {"id": "W1", "weight_faults": [{"scale": 0.7, "fraction": 0.5, "seed": 11}]},
	    {"id": "L1", "learning_rate_faults": [{"scale": 0.5}, {"scale": 1}]}
	  ]
	}`
	su, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Suite: su}

	cells, err := r.AuditCells()
	if err != nil {
		t.Fatal(err)
	}
	// baseline + S1{-20,10} + S2{20} + W1 + L1{×0.5}: S2's +10% cell is
	// S1's, and L1's ×1 cell is the baseline, deduped.
	if len(cells) != 6 {
		t.Fatalf("audit listed %d cells, want 6: %+v", len(cells), cells)
	}
	if cells[0].Entry != "" || cells[0].Desc != "baseline (attack-free)" {
		t.Fatalf("cells[0] = %+v, want the shared baseline with no entry", cells[0])
	}
	wantEntries := []string{"", "S1", "S1", "S2", "W1", "L1"}
	for i, c := range cells {
		if c.Entry != wantEntries[i] {
			t.Fatalf("cells[%d] attributed to %q, want %q", i, c.Entry, wantEntries[i])
		}
		if c.Present {
			t.Fatalf("cells[%d] marked present by a listing that looks nothing up", i)
		}
	}

	// Every key must be the canonical content address the campaign
	// would probe the cache with.
	cfg, images := r.Config()
	e, err := core.NewExperiment("", images, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := su.Entries[1].Scenario.Compile()
	if err != nil {
		t.Fatal(err)
	}
	audit, err := e.AuditScenario(scn, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range audit.Cells {
		if cells[i].Key != c.Key {
			t.Fatalf("cell key %d disagrees with the scenario audit", i)
		}
	}
}
