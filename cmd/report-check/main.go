// Command report-check validates a campaign report written by
// snn-attack's -report flag: the JSON must parse against the current
// schema and the cell accounting must reconcile (trained + cached ==
// total). CI's telemetry-smoke job runs it after a cold and a warm
// campaign:
//
//	report-check -report cold.json
//	report-check -report warm.json -require-trained 0 -require-hit-rate 1
//
// Each -require-counter name=value pins a telemetry counter in the
// same report — the MC warm rerun uses it to assert the circuit tier
// served every mismatch sample from cache (spice.solves=0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snnfi/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "report-check:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		path       = flag.String("report", "", "campaign report JSON to validate")
		reqTrained = flag.Int64("require-trained", -1, "require exactly this many trained cells (-1 = any)")
		reqHitRate = flag.Float64("require-hit-rate", -1, "require exactly this hit rate (-1 = any)")
	)
	var reqCounters []string
	flag.Func("require-counter", "require a telemetry counter to hold exactly a value, as name=value (repeatable)", func(s string) error {
		reqCounters = append(reqCounters, s)
		return nil
	})
	flag.Parse()
	if *path == "" {
		return fmt.Errorf("-report is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	var r core.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("%s: %w", *path, err)
	}
	if r.Schema != core.ReportSchema {
		return fmt.Errorf("%s: schema %q, want %q", *path, r.Schema, core.ReportSchema)
	}
	if r.Cells.Total <= 0 {
		return fmt.Errorf("%s: no cells recorded", *path)
	}
	if r.Cells.Trained+r.Cells.Cached != r.Cells.Total {
		return fmt.Errorf("%s: cells do not reconcile: trained %d + cached %d != total %d",
			*path, r.Cells.Trained, r.Cells.Cached, r.Cells.Total)
	}
	if r.Cells.Trained < 0 || r.Cells.Cached < 0 {
		return fmt.Errorf("%s: negative cell counts: %+v", *path, r.Cells)
	}
	if *reqTrained >= 0 && r.Cells.Trained != *reqTrained {
		return fmt.Errorf("%s: trained %d cells, required %d", *path, r.Cells.Trained, *reqTrained)
	}
	if *reqHitRate >= 0 && r.HitRate != *reqHitRate {
		return fmt.Errorf("%s: hit rate %g, required %g", *path, r.HitRate, *reqHitRate)
	}
	for _, req := range reqCounters {
		name, want, ok := strings.Cut(req, "=")
		if !ok {
			return fmt.Errorf("-require-counter %q: want name=value", req)
		}
		wantN, err := strconv.ParseInt(want, 10, 64)
		if err != nil {
			return fmt.Errorf("-require-counter %q: %w", req, err)
		}
		got, recorded := r.Telemetry.Counters[name]
		if !recorded {
			return fmt.Errorf("%s: counter %q not in report", *path, name)
		}
		if got != wantN {
			return fmt.Errorf("%s: counter %s = %d, required %d", *path, name, got, wantN)
		}
	}
	fmt.Printf("%s: ok — %s, %d cells (%d trained, %d cached), hit rate %.2f, %.2fs wall\n",
		*path, r.Name, r.Cells.Total, r.Cells.Trained, r.Cells.Cached, r.HitRate, r.WallSeconds)
	return nil
}
