package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"snnfi/internal/obs"
)

// timedRun is the untraced run behind the end-to-end metrics: set-up is
// repeated and its median reported, then passes run until seconds of
// pass time are spent, and each figure is the median over the passes.
func (b *bench) timedRun(seconds float64) ([]metric, error) {
	// A cold set-up takes milliseconds, so its median needs many
	// samples; a warm one includes a whole cold pass.
	repeats := 15
	if b.wl.warm {
		repeats = 3
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	var walls, cpus, allocs []float64
	var spent time.Duration
	for len(walls) == 0 || spent.Seconds() < seconds {
		ps, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		spent += ps.wall
		fmt.Fprintf(b.log, "campaignbench: pass %d: wall %.4f s, cpu %.4f s, %d networks trained\n",
			len(walls)+1, ps.wall.Seconds(), ps.cpu.Seconds(), ps.trained)
		walls = append(walls, ps.wall.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		allocs = append(allocs, float64(ps.allocB)/1e6)
	}
	b.passes = len(walls)
	return []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", median(walls), "s"},
		{"cpu_s", median(cpus), "s"},
		{"alloc_mb", median(allocs), "MB"},
	}, nil
}

// tracedRun alternates untraced and traced passes until seconds of
// pass time are spent. The per-layer metrics are medians over the
// traced passes; trace.overhead_pc compares the two kinds' median wall
// time. The spans are written under .bench_build/trace/ when the run
// ends.
func (b *bench) tracedRun(seconds float64) ([]metric, error) {
	if _, err := b.setup(); err != nil {
		return nil, err
	}
	tr := newTracer()
	var plain, tracedWalls []float64
	var stats []passStats
	var spent time.Duration
	for len(stats) == 0 || spent.Seconds() < seconds {
		ps, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ps.wall.Seconds())
		spent += ps.wall

		tr.pass.Add(1)
		ps, err = b.pass(tr)
		if err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, ps.wall.Seconds())
		spent += ps.wall
		stats = append(stats, ps)
	}
	b.passes = len(plain) + len(tracedWalls)

	spans := tr.byPass()
	var rows [][]metric
	for i, ps := range stats {
		rows = append(rows, b.layerMetrics(ps, spans[int64(i+1)]))
	}
	out := make([]metric, len(rows[0]))
	for j := range out {
		vals := make([]float64, len(rows))
		for i := range rows {
			vals[i] = rows[i][j].value
		}
		out[j] = metric{rows[0][j].name, median(vals), rows[0][j].unit}
	}
	out = append(out, metric{"trace.overhead_pc", 100 * (median(tracedWalls)/median(plain) - 1), "%"})

	path := filepath.Join(b.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.seed))
	n, err := tr.write(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "campaignbench: %d spans written to %s\n", n, path)
	return out, nil
}

// pools are the worker pools whose telemetry the per-layer metrics
// read, by their registry prefix.
var pools = []string{"neuron.sweep", "core.cells", "snn.eval"}

// poolUse is one pool's activity within one entry.
type poolUse struct {
	jobs int64
	busy time.Duration // summed job run time
	util float64       // the pool's utilization gauge after the entry
}

func poolTotals(reg *obs.Registry) map[string]poolUse {
	out := make(map[string]poolUse, len(pools))
	for _, p := range pools {
		out[p] = poolUse{jobs: reg.Counter(p + ".jobs").Value(), busy: reg.Histogram(p + ".run").Sum()}
	}
	return out
}

// layerMetrics computes the per-layer metrics of one traced pass from
// its statistics, its registry and its spans. A metric whose layer did
// no work in the pass (a ratio over zero operations, a layer the
// workload never reaches) reads 0.
func (b *bench) layerMetrics(ps passStats, spans []span) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// suite: each entry's wall time; entries the workload skips read 0.
	entryWall := map[string]time.Duration{}
	var solves, iters, restamps int64
	var circuitWall time.Duration
	util := map[string][2]float64{} // pool → (Σ util·busy, Σ busy)
	for _, e := range ps.entries {
		entryWall[e.id] = e.wall
		solves, iters, restamps = solves+e.solves, iters+e.iters, restamps+e.restamps
		if e.solves > 0 {
			circuitWall += e.wall
		}
		for p, u := range e.pools {
			if u.jobs > 0 {
				acc := util[p]
				util[p] = [2]float64{acc[0] + u.util*u.busy.Seconds(), acc[1] + u.busy.Seconds()}
			}
		}
	}
	for _, e := range b.suite.Entries {
		add("suite.entry_s."+e.ID, entryWall[e.ID].Seconds(), "s")
	}
	poolUtil := func(p string) float64 { return ratio(util[p][0], util[p][1]) }

	// spice: solver activity of the whole pass; host time per solve is
	// charged over the entries that solved anything.
	add("spice.solves", float64(solves), "count")
	add("spice.newton_iters", float64(iters), "count")
	add("spice.restamps", float64(restamps), "count")
	add("spice.us_per_solve", 1e6*ratio(circuitWall.Seconds(), float64(solves)), "us")

	reg := ps.reg
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// neuron: the characterization sweep pool.
	points := float64(reg.Counter("neuron.sweep.jobs").Value())
	sweep := reg.Histogram("neuron.sweep.run")
	add("neuron.sweep_points", points, "count")
	add("neuron.sweep_hit_ratio", ratio(float64(reg.Counter("neuron.sweep.hits").Value()), points), "ratio")
	add("neuron.sweep_ms_p50", ms(sweep.Quantile(0.50)), "ms")
	add("neuron.sweep_ms_p95", ms(sweep.Quantile(0.95)), "ms")
	add("neuron.sweep_utilization", poolUtil("neuron.sweep"), "ratio")

	// snn: training and assignment spans the program records per cell.
	stdp, assign := reg.Histogram("snn.stdp").Sum(), reg.Histogram("snn.assign").Sum()
	add("snn.stdp_s", stdp.Seconds(), "s")
	add("snn.assign_s", assign.Seconds(), "s")
	add("snn.us_per_image", 1e6*ratio((stdp+assign).Seconds(), float64(ps.trained)*float64(b.wl.images)), "us")
	add("snn.eval_utilization", poolUtil("snn.eval"), "ratio")

	// core: the campaign cell pool and the serial baseline prefix.
	cells := reg.Histogram("core.cells.run")
	var baseline time.Duration
	for _, s := range spans {
		if s.Name == "experiment" {
			baseline = s.dur()
		}
	}
	add("core.cells", float64(reg.Counter("core.cells.jobs").Value()), "count")
	add("core.cells_hit", float64(reg.Counter("core.cells.hits").Value()), "count")
	add("core.networks_trained", float64(ps.trained), "count")
	add("core.baseline_s", baseline.Seconds(), "s")
	add("core.cell_ms_p50", ms(cells.Quantile(0.50)), "ms")
	add("core.cell_ms_p90", ms(cells.Quantile(0.90)), "ms")
	add("core.cells_utilization", poolUtil("core.cells"), "ratio")

	// runner caches and fabric: from the spans around each level and
	// each served request; retries and errors from the HTTP clients.
	var memGets, memHits, httpHits float64
	var httpGet, httpPut, fabGet, fabPut []float64
	var fabRequests, fabErrors float64
	for _, s := range spans {
		switch {
		case s.Name == "cache.network.mem.get" || s.Name == "cache.circuit.mem.get":
			memGets++
			if s.Detail == "hit" {
				memHits++
			}
		case s.Name == "cache.network.http.get" || s.Name == "cache.circuit.http.get":
			httpGet = append(httpGet, ms(s.dur()))
			if s.Detail == "hit" {
				httpHits++
			}
		case s.Name == "cache.network.http.put" || s.Name == "cache.circuit.http.put":
			httpPut = append(httpPut, ms(s.dur()))
		case strings.HasPrefix(s.Name, "fabric."):
			fabRequests++
			switch s.Name {
			case "fabric.get":
				fabGet = append(fabGet, ms(s.dur()))
			case "fabric.put":
				fabPut = append(fabPut, ms(s.dur()))
			}
			// A 404 is the store's ordinary answer to a miss.
			code, _ := strconv.Atoi(s.Detail)
			if code >= 400 && !(s.Name == "fabric.get" && code == http.StatusNotFound) {
				fabErrors++
			}
		}
	}
	var retries, errs int64
	for _, p := range httpLevels {
		retries += reg.Counter(p + ".retries").Value()
		errs += reg.Counter(p + ".errors").Value()
	}
	add("cache.mem.gets", memGets, "count")
	add("cache.mem.hit_ratio", ratio(memHits, memGets), "ratio")
	add("cache.http.gets", float64(len(httpGet)), "count")
	add("cache.http.hit_ratio", ratio(httpHits, float64(len(httpGet))), "ratio")
	add("cache.http.get_ms_p50", percentile(httpGet, 0.50), "ms")
	add("cache.http.get_ms_p95", percentile(httpGet, 0.95), "ms")
	add("cache.http.puts", float64(len(httpPut)), "count")
	add("cache.http.put_ms_p50", percentile(httpPut, 0.50), "ms")
	add("cache.http.put_ms_p95", percentile(httpPut, 0.95), "ms")
	add("cache.http.retries", float64(retries), "count")
	add("cache.http.errors", float64(errs), "count")
	add("fabric.requests", fabRequests, "count")
	add("fabric.gets", float64(len(fabGet)), "count")
	add("fabric.puts", float64(len(fabPut)), "count")
	add("fabric.get_ms_p50", percentile(fabGet, 0.50), "ms")
	add("fabric.get_ms_p95", percentile(fabGet, 0.95), "ms")
	add("fabric.put_ms_p50", percentile(fabPut, 0.50), "ms")
	add("fabric.put_ms_p95", percentile(fabPut, 0.95), "ms")
	add("fabric.errors", fabErrors, "count")

	// Self time per layer: span time not covered by child spans.
	self := selfTimes(spans)
	for _, l := range []string{"suite", "cache_mem", "cache_http", "fabric"} {
		add("self_s."+l, self[l].Seconds(), "s")
	}
	return out
}

// median of xs (which must be non-empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs, 0 when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
