package suite

import (
	"snnfi/internal/core"
)

// Suite-level cell enumeration: the campaign service answers "how far
// along is this suite?" by comparing the cells the suite would compute
// against a store manifest — without building networks or touching
// SPICE. The entries that compile to scenarios (scenario, weight_faults
// and learning_rate_faults) are the shardable network tier; circuit
// entries run locally in the coordinator and are outside this audit.

// CellRef is one network-tier cell a suite would compute, attributed
// to the entry that compiles it ("" for the shared attack-free
// baseline every scenario reuses).
type CellRef struct {
	Entry   string `json:"entry"`
	Desc    string `json:"desc"`
	Key     string `json:"key"`
	Present bool   `json:"present"`
}

// AuditCells compiles every network entry of the suite and reports
// each distinct network cell's standing against held (a membership
// predicate over a store manifest, core.HeldSet). Pure key arithmetic:
// nothing is trained, the corpus is loaded only for its fingerprint.
// The shared baseline appears exactly once, first; after it, cells
// follow entry order then compile order, so the listing is
// deterministic and directly shardable.
func (r *Runner) AuditCells(held func(key string) bool) ([]CellRef, error) {
	if err := r.Suite.Validate(); err != nil {
		return nil, err
	}
	cfg, images := r.Config()
	e, err := core.NewExperiment(r.DataDir, images, cfg)
	if err != nil {
		return nil, err
	}
	var cells []CellRef
	seen := map[string]bool{}
	for i := range r.Suite.Entries {
		en := &r.Suite.Entries[i]
		scn, err := en.scenario()
		if err != nil {
			return nil, err
		}
		if scn == nil {
			continue
		}
		audit, err := e.AuditScenario(scn, held)
		if err != nil {
			return nil, err
		}
		for j, c := range audit.Cells {
			if seen[c.Key] {
				continue
			}
			seen[c.Key] = true
			entry := en.ID
			if j == 0 { // the shared baseline leads every scenario audit
				entry = ""
			}
			cells = append(cells, CellRef{Entry: entry, Desc: c.Desc, Key: c.Key, Present: c.Present})
		}
	}
	return cells, nil
}
