package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// ReportSchema names the campaign-report JSON layout. Consumers (CI's
// report validation, scripts/bench.sh) match on it; bump it when a
// field changes meaning.
const ReportSchema = "snnfi-campaign-report-v1"

// CellStats partitions a campaign's sweep cells by how their result
// was obtained. Total = Cached + Trained always holds: every completed
// cell either came out of the cache/dedup layer or was trained here.
type CellStats struct {
	Total   int64 `json:"total"`
	Cached  int64 `json:"cached"`
	Trained int64 `json:"trained"`
}

// Report is the structured end-of-run record of one campaign process:
// wall time, cell accounting, and the full telemetry snapshot (phase
// histograms like "snn.stdp"/"snn.assign", pool metrics, cache tiers,
// spice solver counters — whatever was registered).
type Report struct {
	Schema   string `json:"schema"`
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	// WallSeconds covers monitor creation to Report() — the observed
	// campaign, not the whole process.
	WallSeconds float64   `json:"wall_seconds"`
	Workers     int       `json:"workers"`
	Cells       CellStats `json:"cells"`
	// HitRate is Cells.Cached / Cells.Total (0 for an empty campaign).
	HitRate float64 `json:"hit_rate"`
	// NetworksTrained counts actual snn training runs, baseline
	// included — Cells.Trained's denominator-free cousin (the cell
	// count covers the campaign pools only, not a baseline or a Run
	// looked up outside them, as the suite does before its first
	// entry to print the baseline).
	NetworksTrained int64        `json:"networks_trained"`
	Telemetry       obs.Snapshot `json:"telemetry"`
}

// Monitor observes one campaign for reporting: it ensures the
// experiment has a telemetry registry, chains itself onto the
// experiment's progress stream to count cells and cache hits, and
// renders a Report on demand. Attach it before the sweep runs; the
// experiment's own OnProgress (if any) keeps firing unchanged.
type Monitor struct {
	name  string
	exp   *Experiment
	reg   *obs.Registry
	start time.Time

	cells obs.Counter
	hits  obs.Counter
}

// NewMonitor attaches a monitor to e under the given campaign name.
// If e.Obs is nil a fresh registry is installed, so downstream layers
// (pools, training spans, instrumented caches) start recording.
func NewMonitor(e *Experiment, name string) *Monitor {
	if e.Obs == nil {
		e.Obs = obs.NewRegistry()
	}
	m := &Monitor{name: name, exp: e, reg: e.Obs, start: time.Now()}
	e.OnProgress = runner.ChainProgress(e.OnProgress, m.observe)
	return m
}

// Registry returns the registry the monitor records into (the
// experiment's), for wiring additional instruments — disk cache tiers,
// spice.Instrument — into the same report.
func (m *Monitor) Registry() *obs.Registry { return m.reg }

func (m *Monitor) observe(p runner.Progress) {
	m.cells.Inc()
	if p.CacheHit {
		m.hits.Inc()
	}
}

// Report renders the campaign's end-of-run record. Callable once per
// campaign milestone — each call snapshots the registry at that moment.
func (m *Monitor) Report() *Report {
	workers := m.exp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total, cached := m.cells.Value(), m.hits.Value()
	r := &Report{
		Schema:      ReportSchema,
		Name:        m.name,
		Protocol:    snn.ProtocolVersion,
		WallSeconds: time.Since(m.start).Seconds(),
		Workers:     workers,
		Cells: CellStats{
			Total:   total,
			Cached:  cached,
			Trained: total - cached,
		},
		NetworksTrained: m.exp.TrainCount(),
		Telemetry:       m.reg.Snapshot(),
	}
	if total > 0 {
		r.HitRate = float64(cached) / float64(total)
	}
	return r
}

// WriteFile writes the report as indented JSON (atomically enough for
// its purpose: a report is written once, at exit).
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Summarize prints the human-facing digest: one headline line plus the
// phase histograms worth reading at a glance.
func (r *Report) Summarize(w io.Writer) {
	fmt.Fprintf(w, "campaign %s: %d cells (%d cached, %d trained, hit rate %.0f%%) in %.2fs on %d workers; %d networks trained\n",
		r.Name, r.Cells.Total, r.Cells.Cached, r.Cells.Trained,
		100*r.HitRate, r.WallSeconds, r.Workers, r.NetworksTrained)
	names := make([]string, 0, len(r.Telemetry.Histograms))
	for name := range r.Telemetry.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.Telemetry.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s %5d× total %8.1fms  p50 %7.2fms  p95 %7.2fms  max %7.2fms\n",
			name, h.Count, h.TotalMs, h.P50Ms, h.P95Ms, h.MaxMs)
	}
}
