package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// reportScenario is a small but real campaign: a theta sweep whose
// cells train 40+40-neuron networks on 60 synthetic images.
func reportScenario() *Scenario {
	return &Scenario{
		Name:   "report-smoke",
		Attack: Attack1,
		Axes:   Axes{ChangesPc: []float64{-10, 0, 10}},
	}
}

func reportExperiment(t *testing.T) *Experiment {
	t.Helper()
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 40, 40
	cfg.Steps = 150
	e, err := NewExperiment("", 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTelemetryDoesNotChangeOutput is the observation-free contract:
// the same scenario streamed to a JSONL sink produces byte-identical
// records with full telemetry attached and with none.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	run := func(telemetry bool) []byte {
		e := reportExperiment(t)
		var buf bytes.Buffer
		sink := runner.NewJSONLSink(&buf)
		e.Sinks = []runner.Sink{sink}
		if telemetry {
			mon := NewMonitor(e, "report-smoke")
			if mem, ok := e.Cache.(*runner.MemoryCache[*Result]); ok {
				mem.Instrument(mon.Registry(), "cache.fast")
			}
		}
		if _, err := e.RunScenario(reportScenario()); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := run(false)
	observed := run(true)
	if len(plain) == 0 {
		t.Fatal("scenario streamed no records")
	}
	if !bytes.Equal(plain, observed) {
		t.Fatalf("telemetry changed the streamed bytes:\nplain:    %q\nobserved: %q", plain, observed)
	}
}

// TestMonitorReportReconciles runs a campaign twice against one shared
// disk cache and checks the report's books: cell partitions sum, the
// warm rerun is all hits, phase time fits inside workers × wall, and
// the report's cache counters are the disk cache's own Stats.
func TestMonitorReportReconciles(t *testing.T) {
	dir := t.TempDir()
	run := func() (*Report, *runner.DiskCache[*Result]) {
		e := reportExperiment(t)
		disk, err := runner.NewDiskCache[*Result](dir)
		if err != nil {
			t.Fatal(err)
		}
		fast := runner.NewMemoryCache[*Result]()
		e.Cache = runner.NewChain[*Result](fast, disk)
		mon := NewMonitor(e, "report-smoke")
		disk.Instrument(mon.Registry(), "cache.slow")
		fast.Instrument(mon.Registry(), "cache.fast")
		if _, err := e.RunScenario(reportScenario()); err != nil {
			t.Fatal(err)
		}
		return mon.Report(), disk
	}

	cold, disk := run()
	if cold.Schema != ReportSchema || cold.Protocol != snn.ProtocolVersion {
		t.Fatalf("report identity = %q/%q", cold.Schema, cold.Protocol)
	}
	if cold.Cells.Total != 4 { // the attack-free job and 3 cells
		t.Fatalf("cold cells total = %d, want 4", cold.Cells.Total)
	}
	if cold.Cells.Cached+cold.Cells.Trained != cold.Cells.Total {
		t.Fatalf("cell partition does not sum: %+v", cold.Cells)
	}
	if cold.NetworksTrained < int64(cold.Cells.Trained) {
		t.Fatalf("networks trained %d < cells trained %d", cold.NetworksTrained, cold.Cells.Trained)
	}
	// Phase durations must fit inside the campaign's worker budget:
	// every span ran on one of Workers goroutines within WallSeconds.
	// (1.25 covers scheduling noise on loaded CI machines.)
	budget := cold.WallSeconds * float64(cold.Workers) * 1.25
	var phases float64
	for name, h := range cold.Telemetry.Histograms {
		if strings.HasPrefix(name, "snn.") && strings.HasSuffix(name, ".wait") {
			continue // queue time is waiting, not work
		}
		if name == "snn.stdp" || name == "snn.assign" {
			phases += h.TotalMs / 1000
		}
	}
	if phases == 0 {
		t.Fatal("no phase time recorded — spans not wired")
	}
	if phases > budget {
		t.Fatalf("phase time %.3fs exceeds budget %.3fs (wall %.3fs × %d workers)",
			phases, budget, cold.WallSeconds, cold.Workers)
	}
	// Report counters are the disk cache's own atomics.
	h, m := disk.Stats()
	if got := cold.Telemetry.Counters["cache.slow.hits"]; got != h {
		t.Fatalf("report slow hits %d != Stats %d", got, h)
	}
	if got := cold.Telemetry.Counters["cache.slow.misses"]; got != m {
		t.Fatalf("report slow misses %d != Stats %d", got, m)
	}

	warm, _ := run()
	if warm.Cells.Trained != 0 {
		t.Fatalf("warm rerun trained %d cells, want 0 (disk cache)", warm.Cells.Trained)
	}
	if warm.HitRate != 1.0 {
		t.Fatalf("warm hit rate = %g, want 1.0", warm.HitRate)
	}
	if warm.NetworksTrained != 0 {
		t.Fatalf("warm rerun trained %d networks, want 0 (baseline disk-cached too)", warm.NetworksTrained)
	}

	// The report round-trips through its JSON schema.
	data, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cells != cold.Cells || back.Schema != cold.Schema {
		t.Fatalf("report did not round-trip: %+v vs %+v", back.Cells, cold.Cells)
	}
}

// TestMonitorPreservesExistingProgress: attaching a monitor must chain,
// not replace, the experiment's own observer.
func TestMonitorPreservesExistingProgress(t *testing.T) {
	e := reportExperiment(t)
	seen := 0
	e.OnProgress = func(runner.Progress) { seen++ }
	mon := NewMonitor(e, "chain")
	if _, err := e.RunScenario(reportScenario()); err != nil {
		t.Fatal(err)
	}
	if seen != 4 { // the attack-free job and 3 cells
		t.Fatalf("original observer saw %d events, want 4", seen)
	}
	if r := mon.Report(); r.Cells.Total != 4 {
		t.Fatalf("monitor saw %d cells, want 4", r.Cells.Total)
	}
}
