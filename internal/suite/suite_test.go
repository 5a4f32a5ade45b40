package suite

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const paperSuite = "../../suites/paper.json"

func TestPaperSuiteLoadsAndValidates(t *testing.T) {
	s, err := Load(paperSuite)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Entries) != 24 {
		t.Fatalf("paper suite has %d entries, want 24", len(s.Entries))
	}
}

// TestCheckedInSuitesValidate loads and validates every suite file in
// suites/, so the example suites, which no other test runs, cannot rot.
func TestCheckedInSuitesValidate(t *testing.T) {
	paths, err := filepath.Glob("../../suites/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d suite files (%v), want paper.json and the two examples", len(paths), paths)
	}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{
			"top level",
			`{"name":"x","bogus":1,"entries":[]}`,
			"bogus",
		},
		{
			"entry scoped",
			`{"name":"x","entries":[{"id":"F1","overhead":{"neurons":10,"per_layer":5}},{"id":"F2","scenario":{"name":"s","attack":1,"changes_pc":[1],"typo_field":true}}]}`,
			"entry 1 (F2)",
		},
		{
			"nested spec",
			`{"name":"x","entries":[{"id":"A","waveform":{"neuron":"ah","stop_s":1e-6,"step_s":1e-9,"signals":["vout"],"wrong":1}}]}`,
			"entry 0 (A)",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(c.doc))
			if err == nil {
				t.Fatal("strict decode accepted an unknown field")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestAxisValueForms(t *testing.T) {
	var s ScenarioSpec
	doc := `{"name":"s","attack":4,"changes_pc":[-10, {"vdd_equivalent":{"neuron":"iaf","vdd":0.8}}]}`
	if err := strictUnmarshal([]byte(doc), &s); err != nil {
		t.Fatal(err)
	}
	v0, err := s.ChangesPc[0].Resolve()
	if err != nil || v0 != -10 {
		t.Fatalf("bare number resolved to %g, %v", v0, err)
	}
	v1, err := s.ChangesPc[1].Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if v1 >= 0 {
		t.Fatalf("VDD=0.8-equivalent threshold change should be negative, got %g", v1)
	}

	var bad AxisValue
	if err := strictUnmarshal([]byte(`{"vdd_equivalent":{"neuron":"iaf","vdd":0.8},"extra":1}`), &bad); err == nil {
		t.Fatal("axis value object accepted an unknown sibling field")
	}
	if err := strictUnmarshal([]byte(`"ten"`), &bad); err == nil {
		t.Fatal("axis value accepted a string")
	}
}

func TestValidateCatchesSpecErrors(t *testing.T) {
	mk := func(e Entry) *Suite { return &Suite{Name: "t", Entries: []Entry{e}} }
	out := &OutputSpec{CSV: "x.csv", Header: "a,b"}
	cases := []struct {
		name    string
		s       *Suite
		wantErr string
	}{
		{"no entries", &Suite{Name: "t"}, "no entries"},
		{"duplicate ids", &Suite{Name: "t", Entries: []Entry{
			{ID: "A", Overhead: &OverheadSpec{Neurons: 10, PerLayer: 5}, Output: out},
			{ID: "A", Overhead: &OverheadSpec{Neurons: 10, PerLayer: 5}, Output: out},
		}}, "duplicate"},
		{"empty entry", mk(Entry{ID: "A"}), "no experiment specified"},
		{"two experiments", mk(Entry{ID: "A",
			Overhead:  &OverheadSpec{Neurons: 10, PerLayer: 5},
			Detection: &DetectionSpec{Neurons: []string{"ah"}, VDDs: []float64{1}},
			Output:    out,
		}), "conflicting"},
		{"unknown attack", mk(Entry{ID: "A",
			Scenario: &ScenarioSpec{Name: "s", Attack: 9, ChangesPc: []AxisValue{{Value: 1}}},
			Output:   &OutputSpec{CSV: "x.csv", Header: "h", Fields: []string{"scale_pc"}},
		}), "attack"},
		{"unknown field name", mk(Entry{ID: "A",
			Scenario: &ScenarioSpec{Name: "s", Attack: 1, ChangesPc: []AxisValue{{Value: 1}}},
			Output:   &OutputSpec{CSV: "x.csv", Header: "h", Fields: []string{"watts"}},
		}), "watts"},
		{"column out of range", mk(Entry{ID: "A",
			Circuit: []RecipeRef{{Recipe: "iaf-threshold-vs-vdd", Xs: []float64{1}}},
			Output: &OutputSpec{CSV: "x.csv", Header: "h",
				Columns: []ColumnSpec{{From: "y", Series: 3}}},
		}), "series"},
		{"unknown recipe", mk(Entry{ID: "A",
			Circuit: []RecipeRef{{Recipe: "nope", Xs: []float64{1}}},
			Output: &OutputSpec{CSV: "x.csv", Header: "h",
				Columns: []ColumnSpec{{From: "x"}}},
		}), "unknown recipe"},
		{"unknown defense", mk(Entry{ID: "A",
			Scenario: &ScenarioSpec{Name: "s", Attack: 1, ChangesPc: []AxisValue{{Value: 1}},
				Defenses: []DefenseSpec{{Kind: "tinfoil"}}},
			Output: &OutputSpec{CSV: "x.csv", Header: "h", Fields: []string{"scale_pc"}},
		}), "tinfoil"},
		{"coverage supply outside the anchors", mk(Entry{ID: "A",
			Coverage: &CoverageSpec{Neuron: "iaf", VDDs: []float64{0.8, 1.3}},
			Output:   &OutputSpec{CSV: "x.csv", Header: "h"},
		}), "1.3 V is outside"},
		{"attack 5 supply outside the anchors", mk(Entry{ID: "A",
			Scenario: &ScenarioSpec{Name: "s", Attack: 5, Neuron: "ah", VDDs: []float64{-1}},
			Output:   &OutputSpec{CSV: "x.csv", Header: "h", Fields: []string{"vdd_v"}},
		}), "-1 V is outside"},
		{"multi-neuron detection needs placeholder", mk(Entry{ID: "A",
			Detection: &DetectionSpec{Neurons: []string{"ah", "iaf"}, VDDs: []float64{1}},
			Output:    &OutputSpec{CSV: "same.csv", Header: "h"},
		}), "{neuron}"},
		{"vdd_equivalent supply below the anchors", vddEquivalent(0.5), "0.5 V is outside the 0.8–1.2 V"},
		{"vdd_equivalent supply above the anchors", vddEquivalent(1.3), "1.3 V is outside the 0.8–1.2 V"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if err == nil {
				t.Fatal("validation accepted a broken suite")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
	for _, vdd := range []float64{0.8, 1.2} {
		if err := vddEquivalent(vdd).Validate(); err != nil {
			t.Fatalf("vdd_equivalent supply %g V, an end of the anchors, rejected: %v", vdd, err)
		}
	}
}

// vddEquivalent is a one-entry suite whose scenario sweeps the AH
// threshold change equivalent to the supply vdd.
func vddEquivalent(vdd float64) *Suite {
	return &Suite{Name: "t", Entries: []Entry{{ID: "A",
		Scenario: &ScenarioSpec{Name: "s", Attack: 4,
			ChangesPc: []AxisValue{{VDDEquivalent: &VDDEquivalent{Neuron: "ah", VDD: vdd}}}},
		Output: &OutputSpec{CSV: "x.csv", Header: "h", Fields: []string{"scale_pc"}},
	}}}
}

// TestScenarioCompileDeterministic proves the suite→scenario lowering
// is pure: two independent loads compile to deeply equal scenarios, so
// cache keys (derived from the compiled plans) are stable across runs.
func TestScenarioCompileDeterministic(t *testing.T) {
	load := func() []interface{} {
		s, err := Load(paperSuite)
		if err != nil {
			t.Fatal(err)
		}
		var out []interface{}
		for i := range s.Entries {
			spec := s.Entries[i].Scenario
			if spec == nil {
				continue
			}
			scn, err := spec.Compile()
			if err != nil {
				t.Fatalf("%s: %v", s.Entries[i].ID, err)
			}
			out = append(out, scn)
		}
		return out
	}
	a, b := load(), load()
	if len(a) == 0 {
		t.Fatal("paper suite compiled zero scenarios")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two loads compiled different scenarios")
	}
}

// TestRunnerWorkerInvariance proves the artifact bytes do not depend on
// the worker count: network cells and circuit sweeps may complete in
// any order, but the rendered CSVs are ordered by the suite, not by
// completion.
func TestRunnerWorkerInvariance(t *testing.T) {
	doc := `{
	  "name": "tiny",
	  "network": {"images": 12, "neurons": 8, "steps": 40},
	  "entries": [
	    {"id": "C1",
	     "circuit": [{"recipe": "iaf-threshold-vs-vdd", "xs": [0.9, 1.0, 1.1]}],
	     "output": {"csv": "c1.csv", "header": "vdd,thr,d",
	       "columns": [{"from": "x"}, {"from": "y"}, {"from": "delta-pc", "ref_index": 1}]}},
	    {"id": "S1",
	     "scenario": {"name": "tiny-attack1", "attack": 1, "changes_pc": [-10, 0, 10]},
	     "output": {"csv": "s1.csv", "header": "scale,acc,rel",
	       "fields": ["scale_pc", "accuracy_pc", "rel_change_pc"]}}
	  ]
	}`
	run := func(workers int) map[string]string {
		su, err := Decode(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		r := &Runner{Suite: su, Name: "test", OutDir: out, Stdout: io.Discard, Workers: workers}
		if err := r.Run(nil); err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(out, "*.csv"))
		got := map[string]string{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			got[filepath.Base(f)] = string(b)
		}
		return got
	}
	serial, pooled := run(1), run(3)
	if len(serial) != 2 {
		t.Fatalf("suite wrote %d artifacts, want 2", len(serial))
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatal("artifact bytes changed with the worker count")
	}
}

// TestRunnerOnlyFiltersEntries checks -only semantics: listed IDs run,
// unknown IDs are an error (a typo must not silently skip a figure).
func TestRunnerOnlyFiltersEntries(t *testing.T) {
	doc := `{
	  "name": "two",
	  "entries": [
	    {"id": "A", "overhead": {"neurons": 10, "per_layer": 5},
	     "output": {"csv": "a.csv", "header": "row,p,a"}},
	    {"id": "B", "overhead": {"neurons": 20, "per_layer": 10},
	     "output": {"csv": "b.csv", "header": "row,p,a"}}
	  ]
	}`
	su, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	r := &Runner{Suite: su, OutDir: out, Stdout: io.Discard}
	if err := r.Run([]string{"B"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "a.csv")); !os.IsNotExist(err) {
		t.Fatal("filtered-out entry A still wrote its artifact")
	}
	if _, err := os.Stat(filepath.Join(out, "b.csv")); err != nil {
		t.Fatal("selected entry B wrote nothing")
	}
	if err := r.Run([]string{"nope"}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown -only id: got %v, want an error naming it", err)
	}
}

// TestRunnerArtifactWrites: the output directory appears with the first
// artifact, so a print-only entry leaves a missing one absent and an
// artifact entry creates it, and a write that fails, here an artifact
// on /dev/full, fails the entry.
func TestRunnerArtifactWrites(t *testing.T) {
	doc := `{
	  "name": "io",
	  "entries": [
	    {"id": "P", "overhead": {"neurons": 10, "per_layer": 5}},
	    {"id": "A", "overhead": {"neurons": 10, "per_layer": 5},
	     "output": {"csv": "a.csv", "header": "row,p,a"}},
	    {"id": "F", "overhead": {"neurons": 10, "per_layer": 5},
	     "output": {"csv": "full", "header": "row,p,a"}}
	  ]
	}`
	su, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results")
	r := &Runner{Suite: su, OutDir: out, Stdout: io.Discard}
	if err := r.Run([]string{"P"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("print-only entry left the output directory behind (stat: %v)", err)
	}
	if err := r.Run([]string{"A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "a.csv")); err != nil {
		t.Fatalf("artifact entry did not create its directory and file: %v", err)
	}

	if fi, err := os.Stat("/dev/full"); err != nil || fi.Mode()&os.ModeCharDevice == 0 {
		t.Skip("no /dev/full device here")
	}
	r.OutDir = "/dev"
	if err := r.Run([]string{"F"}); err == nil {
		t.Fatal("an artifact written to /dev/full reported no error")
	}
}

// readmeSuite is the README's one-line custom suite.
const readmeSuite = `{"name":"mine","entries":[{"id":"S1","scenario":{"name":"my-sweep","attack":3,"changes_pc":[-30],"fractions_pc":[75],"defenses":[{"kind":"bandgap","neuron":"iaf"}],"detector":{"neuron":"iaf"}}}]}`

// FuzzSuiteDecode: a suite file is outside input, so decoding any
// bytes and validating what decodes must end in a suite or an error,
// never a panic. Seeded with every checked-in suite and the README's.
func FuzzSuiteDecode(f *testing.F) {
	paths, err := filepath.Glob("../../suites/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no suites to seed from: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(readmeSuite))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if (s == nil) == (err == nil) {
			t.Fatalf("Decode returned suite %v and error %v: want exactly one", s != nil, err)
		}
		if s != nil {
			_ = s.Validate()
		}
	})
}
