package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestAuditJSONGolden pins the -audit-json wire format byte-for-byte:
// the schema line, cell order (baseline first, then compile order),
// the content addresses themselves, and the present/missing rollup.
// Keys are deterministic — the synthetic corpus, the canonical KeyOf
// rendering and the fixed seeds make the same specification hash
// identically in every process — so this golden holds on any
// platform. It moves only when something that SHOULD move it does
// (a protocol-version bump, a fingerprint ingredient change); re-pin
// with `go test ./internal/core -run AuditJSONGolden -update` and say
// so in the commit.
func TestAuditJSONGolden(t *testing.T) {
	e := tinyExperiment(t, 8)
	scn := &Scenario{
		Name:     "audit-golden",
		Attack:   Attack3,
		Axes:     Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{50}},
		Defenses: []Hardening{attenuator{"atten", 0.2}},
	}

	// First pass learns the keys; the golden audit then marks the
	// baseline and one grid cell present, exercising both standings.
	probe, err := e.AuditScenario(scn, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Cells) != 5 { // baseline + 2 coords × (undefended + atten)
		t.Fatalf("compiled %d cells, want 5", len(probe.Cells))
	}
	audit, err := e.AuditScenario(scn, func(k string) bool { return k == probe.Cells[0].Key || k == probe.Cells[1].Key })
	if err != nil {
		t.Fatal(err)
	}
	if audit.Present != 2 || audit.Missing != 3 || audit.Complete() {
		t.Fatalf("rollup = %d present / %d missing / complete=%v, want 2/3/false",
			audit.Present, audit.Missing, audit.Complete())
	}

	var buf bytes.Buffer
	if err := audit.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "audit_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (re-pin with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("audit JSON drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
