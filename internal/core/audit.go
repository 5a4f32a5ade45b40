package core

import (
	"encoding/json"
	"io"
)

// Campaign manifest audit: given a scenario and the set of keys a
// result cache holds (runner.DiskCache.Manifest or the HTTP store's
// manifest), report which cells are already computed and which a
// resume would retrain — without training anything. cmd/snn-attack
// surfaces this as -audit (human table) and -audit-json (the
// machine-readable form the fabric's shard assignment consumes).

// AuditSchema names the -audit-json layout. Consumers (cmd/snn-worker,
// fabric tooling, scripts) match on it; bump it when a field changes
// meaning.
const AuditSchema = "snnfi-audit-v2"

// CellStatus is one compiled cell's cache standing.
type CellStatus struct {
	Desc    string `json:"desc"` // human cell description (compile order)
	Key     string `json:"key"`  // content address the cache is probed with
	Present bool   `json:"present"`
}

// ScenarioAudit summarizes a scenario's resume status against a cache.
// Cells whose plans have equal effects share one key, so the Cells
// list ("N cells") may name fewer Distinct keys ("M distinct"): the
// networks a cold run trains. Present and Missing count cells.
type ScenarioAudit struct {
	Name     string       `json:"scenario"`
	Cells    []CellStatus `json:"cells"` // baseline first, then compile order
	Distinct int          `json:"distinct"`
	Present  int          `json:"present"`
	Missing  int          `json:"missing"`
}

// Complete reports whether a resume would retrain nothing.
func (a *ScenarioAudit) Complete() bool { return a.Missing == 0 }

// MissingKeys returns the distinct keys of the missing cells, in audit
// order: the networks a resume would train.
func (a *ScenarioAudit) MissingKeys() []string {
	var keys []string
	seen := map[string]bool{}
	for _, c := range a.Cells {
		if !c.Present && !seen[c.Key] {
			seen[c.Key] = true
			keys = append(keys, c.Key)
		}
	}
	return keys
}

// AuditScenario compiles the scenario and checks the content address
// of every job of its campaign — the attack-free cell first, then the
// compiled cells — against held, typically a set built from
// runner.DiskCache.Manifest. Nothing is trained or loaded; the audit
// is pure key arithmetic.
func (e *Experiment) AuditScenario(s *Scenario, held func(key string) bool) (*ScenarioAudit, error) {
	jobs, meta, err := s.compile()
	if err != nil {
		return nil, err
	}
	keys, err := e.cellKeys(jobs)
	if err != nil {
		return nil, err
	}
	audit := &ScenarioAudit{
		Name:  meta.name,
		Cells: make([]CellStatus, len(jobs)),
	}
	seen := map[string]bool{}
	for i, c := range jobs {
		st := CellStatus{Desc: c.desc, Key: keys[i], Present: held(keys[i])}
		if st.Present {
			audit.Present++
		} else {
			audit.Missing++
		}
		if !seen[st.Key] {
			seen[st.Key] = true
			audit.Distinct++
		}
		audit.Cells[i] = st
	}
	return audit, nil
}

// WriteJSON renders the audit in the -audit-json wire format: the
// schema name, then the cells in compile order (baseline first) with
// their content addresses and standing, the distinct-key count and
// the rollup. Keys appear exactly as the cache is probed with them,
// so the output is directly usable as the fabric's shard-assignment
// input — a worker executes the missing keys assigned to it and
// nothing else. The rendering is deterministic: same audit, same
// bytes.
func (a *ScenarioAudit) WriteJSON(w io.Writer) error {
	type auditJSON struct {
		Schema string `json:"schema"`
		*ScenarioAudit
		Complete bool `json:"complete"`
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(auditJSON{Schema: AuditSchema, ScenarioAudit: a, Complete: a.Complete()})
}

// HeldSet adapts a key list (runner.DiskCache.Manifest output) into
// the membership predicate AuditScenario consumes.
func HeldSet(keys []string) func(string) bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return func(k string) bool { return set[k] }
}
