package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestGroupsGateFlagRegistration(t *testing.T) {
	reg := func(g Group) map[string]bool {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		AddFlagsTo(fs, g)
		got := map[string]bool{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = true })
		return got
	}
	campaign := reg(Campaign)
	for _, name := range []string{"workers", "jsonl", "cache-dir", "report", "quiet", "progress", "pprof", "cpuprofile", "memprofile"} {
		if !campaign[name] {
			t.Errorf("Campaign group is missing -%s", name)
		}
	}
	worker := reg(Worker)
	for _, name := range []string{"workers", "cache-dir", "quiet", "progress", "pprof", "store"} {
		if !worker[name] {
			t.Errorf("Worker group is missing -%s", name)
		}
	}
	for _, name := range []string{"jsonl", "report"} {
		if worker[name] {
			t.Errorf("Worker group registers -%s it does not honor", name)
		}
	}
}

func TestSplitIDs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"F3", []string{"F3"}},
		{"F3, F8b ,,E1", []string{"F3", "F8b", "E1"}},
	}
	for _, c := range cases {
		if got := SplitIDs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitIDs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSessionCloseIdempotent(t *testing.T) {
	f := &Flags{Quiet: true}
	s, err := f.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRunSuiteColdWarm drives the whole CLI path twice against one
// -cache-dir: the warm run must retrain zero networks (its campaign
// report says so) and reproduce the cold run's artifact bytes.
func TestRunSuiteColdWarm(t *testing.T) {
	dir := t.TempDir()
	suitePath := filepath.Join(dir, "tiny.json")
	doc := `{
	  "name": "tiny",
	  "network": {"images": 12, "neurons": 8, "steps": 40},
	  "entries": [
	    {"id": "S1",
	     "scenario": {"name": "tiny-attack1", "attack": 1, "changes_pc": [-10, 10]},
	     "output": {"csv": "s1.csv", "header": "scale,acc,rel",
	       "fields": ["scale_pc", "accuracy_pc", "rel_change_pc"]}}
	  ]
	}`
	if err := os.WriteFile(suitePath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(tag string) (csv []byte, trained int64) {
		report := filepath.Join(dir, tag+".json")
		out := filepath.Join(dir, "out-"+tag)
		f := &Flags{Quiet: true, CacheDir: filepath.Join(dir, "cache"), Report: report}
		s, err := f.Start("test")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.RunSuite(SuiteOptions{Path: suitePath, OutDir: out}); err != nil {
			t.Fatalf("%s run: %v", tag, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s close: %v", tag, err)
		}
		csv, err = os.ReadFile(filepath.Join(out, "s1.csv"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			NetworksTrained int64 `json:"networks_trained"`
		}
		b, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		return csv, rep.NetworksTrained
	}

	coldCSV, coldTrained := run("cold")
	if coldTrained == 0 {
		t.Fatal("cold run trained no networks — the cache-dir test is vacuous")
	}
	warmCSV, warmTrained := run("warm")
	if warmTrained != 0 {
		t.Fatalf("warm run trained %d networks, want 0", warmTrained)
	}
	if string(coldCSV) != string(warmCSV) {
		t.Fatal("warm artifact bytes differ from the cold run")
	}
}

func TestRunSuiteValidateAndListModes(t *testing.T) {
	f := &Flags{Quiet: true}
	s, err := f.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, opts := range []SuiteOptions{
		{Path: "../../suites/paper.json", Validate: true},
		{Path: "../../suites/paper.json", List: true},
	} {
		if err := s.RunSuite(opts); err != nil {
			t.Errorf("inspection mode %+v: %v", opts, err)
		}
	}
	if err := s.RunSuite(SuiteOptions{Path: "does-not-exist.json", Validate: true}); err == nil {
		t.Error("validate mode accepted a missing file")
	}
}
