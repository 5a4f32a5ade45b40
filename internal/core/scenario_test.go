package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// attenuator is a test Hardening: it shrinks every fault's excursion
// around nominal by a residual factor, like the paper's parameter
// defenses do.
type attenuator struct {
	name     string
	residual float64
}

func (h attenuator) Name() string { return h.name }

func (h attenuator) Harden(p *FaultPlan) *FaultPlan {
	out := &FaultPlan{Name: p.Name + "+" + h.name}
	out.Faults = append([]FaultSpec(nil), p.Faults...)
	for i := range out.Faults {
		out.Faults[i].Scale = 1 + (out.Faults[i].Scale-1)*h.residual
	}
	return out
}

// bigExcursionJudge is a test CellJudge: it flags cells whose scale
// excursion is at least 15%.
type bigExcursionJudge struct{}

func (bigExcursionJudge) Judge(p SweepPoint, plan *FaultPlan) bool {
	return p.ScalePc >= 15 || p.ScalePc <= -15
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
	}{
		{"empty", Scenario{}},
		{"attack and plans", Scenario{Attack: Attack1, Plans: []*FaultPlan{nil}, Axes: Axes{ChangesPc: []float64{1}}}},
		{"attack1 without changes", Scenario{Attack: Attack1}},
		{"attack5 without vdds", Scenario{Attack: Attack5}},
		{"unknown attack", Scenario{Attack: AttackID(9), Axes: Axes{ChangesPc: []float64{1}}}},
		{"nil defense", Scenario{Attack: Attack1, Axes: Axes{ChangesPc: []float64{1}}, Defenses: []Hardening{nil}}},
		{"two extension kinds", Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0.5, Fraction: 0.5}}, LearningRateFaults: []LearningRateFaultSpec{{Scale: 0.5}}}},
		{"invalid weight fault", Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0, Fraction: 0.5}}}},
		{"invalid learning-rate fault", Scenario{LearningRateFaults: []LearningRateFaultSpec{{Scale: -1}}}},
		{"defended weight faults", Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0.5, Fraction: 0.5}}, Defenses: []Hardening{attenuator{"a", 0.5}}}},
		{"judged learning-rate faults", Scenario{LearningRateFaults: []LearningRateFaultSpec{{Scale: 0.5}}, Detector: bigExcursionJudge{}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", c.name)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, s := range []Scenario{
			{Attack: Attack3, Axes: Axes{ChangesPc: []float64{-20, x}}},
			{Attack: Attack2, Axes: Axes{ChangesPc: []float64{-20}, FractionsPc: []float64{50, x}}},
			{Attack: Attack5, Axes: Axes{VDDs: []float64{0.8, x}}},
		} {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(x)) {
				t.Errorf("axes %+v: Validate returned %v, want an error naming %v", s.Axes, err, x)
			}
		}
	}
	ok := Scenario{Attack: Attack2, Axes: Axes{ChangesPc: []float64{-20}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestScenarioCompileDeterministic: compiling the same scenario twice
// yields the same jobs — the attack-free job first, then the cells'
// coordinates, plans, descriptions, content addresses — in the same
// order. This purity is what makes campaign output independent of
// worker count.
func TestScenarioCompileDeterministic(t *testing.T) {
	e := tinyExperiment(t, 10)
	s := &Scenario{
		Attack:   Attack3,
		Axes:     Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{50, 100}},
		Defenses: []Hardening{attenuator{"atten-a", 0.1}, attenuator{"atten-b", 0.5}},
		Detector: bigExcursionJudge{},
	}
	a, metaA, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	if !metaA.matrix || !metaA.coords {
		t.Fatalf("matrix scenario compiled to meta %+v", metaA)
	}
	wantCells := 2 * 2 * 3 // coords × (undefended + 2 defenses)
	if len(a) != 1+wantCells || len(b) != 1+wantCells {
		t.Fatalf("compiled %d/%d jobs, want the baseline and %d cells", len(a), len(b), wantCells)
	}
	if a[0].point.Plan != nil || a[0].desc != "baseline (attack-free)" {
		t.Fatalf("job 0 is %q, want the attack-free cell", a[0].desc)
	}
	keysA, err := e.cellKeys(a)
	if err != nil {
		t.Fatal(err)
	}
	keysB, err := e.cellKeys(b)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		pa, pb := a[i].point, b[i].point
		pa.Plan, pb.Plan = nil, nil
		if a[i].desc != b[i].desc || keysA[i] != keysB[i] || pa != pb ||
			(i > 0 && a[i].point.Plan.Name != b[i].point.Plan.Name) {
			t.Fatalf("job %d differs between compilations: %+v vs %+v", i, a[i], b[i])
		}
		if seen[keysA[i]] {
			t.Fatalf("cell %d (%s) reuses a content address", i, a[i].desc)
		}
		seen[keysA[i]] = true
	}
}

// TestScenarioMatrixDeterministicAcrossWorkers runs a defended,
// detector-judged matrix at several pool widths: SweepPoints and the
// streamed JSONL must be byte-identical, with the defense and detected
// fields populated.
func TestScenarioMatrixDeterministicAcrossWorkers(t *testing.T) {
	e := tinyExperiment(t, 60)
	s := &Scenario{
		Name:     "matrix",
		Attack:   Attack3,
		Axes:     Axes{ChangesPc: []float64{-20, 10}},
		Defenses: []Hardening{attenuator{"atten", 0.2}},
		Detector: bigExcursionJudge{},
	}
	var ref []SweepPoint
	var refJSONL []byte
	for _, workers := range []int{1, 4} {
		e.Cache = runner.NewMemoryCache[*Result]()
		e.Workers = workers
		var buf bytes.Buffer
		sink := runner.NewJSONLSink(&buf)
		e.Sinks = []runner.Sink{sink}
		pts, err := e.RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref, refJSONL = pts, buf.Bytes()
			continue
		}
		samePoints(t, workers, pts, ref)
		if !bytes.Equal(buf.Bytes(), refJSONL) {
			t.Fatalf("workers=%d: streamed JSONL differs from serial:\n%s\nvs\n%s",
				workers, buf.Bytes(), refJSONL)
		}
	}
	// The matrix shape: per coordinate, undefended then defended.
	if len(ref) != 4 {
		t.Fatalf("%d points, want 4", len(ref))
	}
	if ref[0].Defense != "" || ref[1].Defense != "atten" || ref[2].Defense != "" || ref[3].Defense != "atten" {
		t.Fatalf("defense columns wrong: %+v", ref)
	}
	if !ref[0].Detected || !ref[1].Detected || ref[2].Detected || ref[3].Detected {
		t.Fatalf("detector verdicts wrong (want -20%% flagged, +10%% silent): %+v", ref)
	}
	if !bytes.Contains(refJSONL, []byte(`"defense":"atten"`)) ||
		!bytes.Contains(refJSONL, []byte(`"detected":true`)) ||
		!bytes.Contains(refJSONL, []byte(`"detected":false`)) {
		t.Fatalf("records lack populated defense/detected fields:\n%s", refJSONL)
	}
	// The defended replay really is the attenuated plan, not a copy of
	// the undefended cell.
	if ref[1].Plan.Name != ref[0].Plan.Name+"+atten" {
		t.Fatalf("defended plan %q does not derive from %q", ref[1].Plan.Name, ref[0].Plan.Name)
	}
}

// TestAttack1SweepGoldenRecords pins the record schema of a plain
// sweep: the pre-scenario field names, in order, no matrix fields,
// values matching the returned points.
func TestAttack1SweepGoldenRecords(t *testing.T) {
	e := tinyExperiment(t, 40)
	var buf bytes.Buffer
	sink := runner.NewJSONLSink(&buf)
	e.Sinks = []runner.Sink{sink}
	pts, err := e.RunScenario(&Scenario{Name: "attack1-theta", Attack: Attack1, Axes: Axes{ChangesPc: []float64{-20, 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(pts) {
		t.Fatalf("%d records for %d points", len(lines), len(pts))
	}
	wantFields := []string{"sweep", "plan", "scale_pc", "fraction_pc", "vdd_v",
		"accuracy", "baseline", "rel_change_pc", "total_spikes"}
	fieldRe := regexp.MustCompile(`"([a-z_]+)":`)
	for i, line := range lines {
		var names []string
		for _, m := range fieldRe.FindAllStringSubmatch(line, -1) {
			names = append(names, m[1])
		}
		if strings.Join(names, ",") != strings.Join(wantFields, ",") {
			t.Fatalf("record %d fields %v, want legacy schema %v", i, names, wantFields)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["sweep"] != "attack1-theta" || rec["plan"] != pts[i].Plan.Name {
			t.Fatalf("record %d mislabeled: %s", i, line)
		}
		if rec["accuracy"] != pts[i].Result.Accuracy || rec["baseline"] != pts[i].Baseline ||
			rec["rel_change_pc"] != pts[i].RelChangePc || rec["scale_pc"] != pts[i].ScalePc {
			t.Fatalf("record %d values do not match point %+v: %s", i, pts[i], line)
		}
	}
}

// TestLayerGridEquivalentToDirectRuns: the scenario-compiled grid is
// the same campaign as direct Run calls over hand-built plans — same
// results AND same content addresses (the direct runs are all served
// from the sweep's cache, retraining nothing).
func TestLayerGridEquivalentToDirectRuns(t *testing.T) {
	e := tinyExperiment(t, 40)
	changes := []float64{-20, 10}
	fractions := []float64{50, 100}
	pts, err := e.RunScenario(&Scenario{Attack: Attack2, Axes: Axes{ChangesPc: changes, FractionsPc: fractions}})
	if err != nil {
		t.Fatal(err)
	}
	trained := e.TrainCount()
	i := 0
	for _, c := range changes {
		for _, f := range fractions {
			direct, err := e.Run(NewAttack2(1+c/100, f/100, gridMaskSeed))
			if err != nil {
				t.Fatal(err)
			}
			p := pts[i]
			if p.ScalePc != c || p.FractionPc != f {
				t.Fatalf("cell %d coords (%g,%g), want (%g,%g)", i, p.ScalePc, p.FractionPc, c, f)
			}
			if direct.Result != p.Result || direct.RelChangePc != p.RelChangePc {
				t.Fatalf("cell %d: direct run %+v != grid %+v", i, direct, p)
			}
			i++
		}
	}
	if e.TrainCount() != trained {
		t.Fatalf("direct replays retrained %d networks: the scenario compiler is not producing the canonical plans", e.TrainCount()-trained)
	}
}

// tieredExperiment gives an experiment a disk tier over dir.
func tieredExperiment(t *testing.T, nImages int, dir string) (*Experiment, *runner.DiskCache[*Result]) {
	t.Helper()
	e := tinyExperiment(t, nImages)
	disk, err := runner.NewDiskCache[*Result](dir)
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = runner.NewChain[*Result](e.Cache, disk)
	return e, disk
}

// TestColdProcessResume is the resumability contract: a second
// experiment (fresh memory cache — a new process) over a warm cache
// directory retrains only the cells the first run never computed, and
// a third run of the full campaign trains zero networks.
func TestColdProcessResume(t *testing.T) {
	dir := t.TempDir()
	e1, disk1 := tieredExperiment(t, 40, dir)
	e1.Workers = 4
	first, err := e1.RunScenario(&Scenario{Attack: Attack3, Axes: Axes{ChangesPc: []float64{-20}, FractionsPc: []float64{50, 100}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.TrainCount(); got != 3 { // 2 cells + baseline
		t.Fatalf("first process trained %d, want 3", got)
	}
	if err := disk1.Err(); err != nil {
		t.Fatal(err)
	}

	// Second process: a superset campaign. Only the new coordinate's
	// cells are missing from disk — the baseline and the first run's
	// cells must come back without training.
	e2, _ := tieredExperiment(t, 40, dir)
	e2.Workers = 4
	grid := &Scenario{Attack: Attack3, Axes: Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{50, 100}}}
	second, err := e2.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.TrainCount(); got != 2 {
		t.Fatalf("resumed process trained %d networks, want only the 2-cell delta", got)
	}
	samePoints(t, 4, second[:2], first)

	// Third process, identical campaign: everything is on disk.
	e3, _ := tieredExperiment(t, 40, dir)
	e3.Workers = 4
	third, err := e3.RunScenario(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.TrainCount(); got != 0 {
		t.Fatalf("fully-warm process trained %d networks, want 0", got)
	}
	if e3.spikes != nil {
		t.Fatal("fully-warm process encoded the spike corpus")
	}
	samePoints(t, 4, third, second)
}

// TestExtensionFaultsPooledAndCached is the extension port's contract:
// weight and learning-rate faults are content-addressed scenario cells
// — repeated runs retrain zero networks (in-process and across a disk
// resume), they count toward TrainCount, and they stream to sinks.
func TestExtensionFaultsPooledAndCached(t *testing.T) {
	dir := t.TempDir()
	e, _ := tieredExperiment(t, 40, dir)
	var buf bytes.Buffer
	sink := runner.NewJSONLSink(&buf)
	e.Sinks = []runner.Sink{sink}

	weight := &Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0.7, Fraction: 0.5, EveryNImages: 10, Seed: 11}}}
	rate := &Scenario{LearningRateFaults: []LearningRateFaultSpec{{Scale: 0.5}}}
	run := func(e *Experiment, s *Scenario) SweepPoint {
		t.Helper()
		pts, err := e.RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	w1 := run(e, weight)
	if got := e.TrainCount(); got != 2 { // baseline + fault cell
		t.Fatalf("weight fault accounted %d trains, want 2", got)
	}
	l1 := run(e, rate)
	if got := e.TrainCount(); got != 3 {
		t.Fatalf("learning-rate fault accounted %d trains, want 3", got)
	}

	// Repeated extension runs retrain zero times.
	w2, l2 := run(e, weight), run(e, rate)
	if got := e.TrainCount(); got != 3 {
		t.Fatalf("repeated extension runs retrained %d networks, want 0", got-3)
	}
	if w1.Result != w2.Result || l1.Result != l2.Result {
		t.Fatal("cached extension results differ from the originals")
	}

	// A distinct cadence is a distinct content address.
	run(e, &Scenario{WeightFaults: []WeightFaultSpec{{Scale: 0.7, Fraction: 0.5, EveryNImages: 20, Seed: 11}}})
	if got := e.TrainCount(); got != 4 {
		t.Fatalf("distinct cadence trained %d networks, want 1 more", got-3)
	}

	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"sweep":"ext-weight-fault","plan":"ext-weight-fault-0.70x-50%"`) ||
		!strings.Contains(out, `"sweep":"ext-learning-rate","plan":"ext-learning-rate-0.50x"`) {
		t.Fatalf("extension cells did not stream to sinks:\n%s", out)
	}

	// Cold-process resume covers extensions too.
	e2, _ := tieredExperiment(t, 40, dir)
	w3 := run(e2, weight)
	if got := e2.TrainCount(); got != 0 {
		t.Fatalf("warm-disk extension run trained %d networks, want 0", got)
	}
	if w3.Result.Accuracy != w1.Result.Accuracy || w3.RelChangePc != w1.RelChangePc {
		t.Fatal("disk-resumed extension result drifted")
	}
}

// TestWeightFaultHitsDistinctSynapses: the drift must hit exactly
// Fraction·total distinct synapses, never double-scaling one (the old
// rng.Intn sampling drew with replacement).
func TestWeightFaultHitsDistinctSynapses(t *testing.T) {
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	n, err := snn.NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.W.Data {
		n.W.Data[i] = 1
	}
	spec := WeightFaultSpec{Scale: 0.5, Fraction: 0.25, Seed: 3}
	spec.apply(n, rand.New(rand.NewSource(spec.Seed)))

	total := len(n.W.Data)
	want := int(spec.Fraction*float64(total) + 0.5)
	hit := 0
	for _, w := range n.W.Data {
		switch w {
		case 1: // untouched
		case 0.5: // scaled exactly once
			hit++
		default:
			t.Fatalf("synapse scaled more than once: weight %g", w)
		}
	}
	if hit != want {
		t.Fatalf("drift hit %d synapses, want exactly %d of %d", hit, want, total)
	}
}

// TestAuditScenario: the campaign audit reports exactly which cells
// (plus the shared baseline) a cache directory holds, asking it by
// key, without training anything — and flips to complete after the
// campaign runs.
func TestAuditScenario(t *testing.T) {
	dir := t.TempDir()
	e, disk := tieredExperiment(t, 40, dir)
	s := &Scenario{
		Attack: Attack3,
		Axes:   Axes{ChangesPc: []float64{-20, 10}},
	}

	held := func(key string) bool {
		_, ok := disk.Get(key)
		return ok
	}

	cold, err := e.AuditScenario(s, held)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TrainCount(); got != 0 {
		t.Fatalf("audit trained %d networks, want 0", got)
	}
	if cold.Complete() || cold.Present != 0 || cold.Missing != 3 { // baseline + 2 cells
		t.Fatalf("cold audit = %+v, want 3 missing", cold)
	}
	if cold.Cells[0].Desc != "baseline (attack-free)" {
		t.Fatalf("audit must lead with the baseline, got %q", cold.Cells[0].Desc)
	}
	// Cells that train one network are one unit of work: a 0% glitch
	// is the baseline, so 5 cells name 3 distinct networks.
	grid, err := e.AuditScenario(&Scenario{
		Attack: Attack3,
		Axes:   Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{0, 100}},
	}, held)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 5 || grid.Distinct != 3 || grid.Missing != 5 || len(grid.MissingKeys()) != 3 {
		t.Fatalf("grid audit: %d cells → %d distinct, %d missing cells, %d missing keys; want 5 → 3, 5, 3",
			len(grid.Cells), grid.Distinct, grid.Missing, len(grid.MissingKeys()))
	}

	// Run half the campaign: one coordinate.
	if _, err := e.RunScenario(&Scenario{Attack: Attack3, Axes: Axes{ChangesPc: []float64{-20}}}); err != nil {
		t.Fatal(err)
	}
	half, err := e.AuditScenario(s, held)
	if err != nil {
		t.Fatal(err)
	}
	if half.Present != 2 || half.Missing != 1 {
		t.Fatalf("half audit = %d present / %d missing, want 2/1", half.Present, half.Missing)
	}
	for _, c := range half.Cells {
		if c.Desc == "attack 3 at +10%" && c.Present {
			t.Fatal("unrun coordinate reported present")
		}
	}

	// Finish the campaign: audit flips to complete, still zero training.
	if _, err := e.RunScenario(s); err != nil {
		t.Fatal(err)
	}
	trained := e.TrainCount()
	full, err := e.AuditScenario(s, held)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete() {
		t.Fatalf("full audit still missing %d cells", full.Missing)
	}
	if e.TrainCount() != trained {
		t.Fatal("audit trained networks")
	}
	// The audit keys are the very keys the campaign would probe.
	jobs, _, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := e.cellKeys(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if full.Cells[i].Key != k {
			t.Fatalf("audit key %d disagrees with the campaign's", i)
		}
	}
}

// TestRunShardDealsEveryCellOnce: the shards of a campaign deal its
// distinct cells, in job order, round-robin: their keys are disjoint,
// together they are the audit's distinct keys, and the attack-free
// cell is shard 0's first. Here the 0% cells alias the baseline, so 7
// cells are 5 distinct networks, and 6 shards leave one empty. Each
// shard trains exactly its own cells; bad geometry is an error.
func TestRunShardDealsEveryCellOnce(t *testing.T) {
	s := &Scenario{
		Attack: Attack3,
		Axes:   Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{0, 50, 100}},
	}
	audit, err := tinyExperiment(t, 20).AuditScenario(s, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	var distinct []string
	for _, c := range audit.Cells {
		if !slices.Contains(distinct, c.Key) {
			distinct = append(distinct, c.Key)
		}
	}
	if len(audit.Cells) != 7 || len(distinct) != 5 {
		t.Fatalf("%d cells → %d distinct, want 7 → 5 (the 0%% cells are the baseline)", len(audit.Cells), len(distinct))
	}
	for _, shards := range []int{1, 2, 3, 6} {
		var union []string
		for shard := 0; shard < shards; shard++ {
			e := tinyExperiment(t, 20)
			dealt, cells, err := e.RunShard(s, shard, shards)
			if err != nil {
				t.Fatal(err)
			}
			if cells != len(distinct) || e.TrainCount() != int64(len(dealt)) {
				t.Fatalf("shard %d/%d: %d of %d cells, trained %d", shard, shards, len(dealt), cells, e.TrainCount())
			}
			for i, k := range dealt {
				if k != distinct[shard+i*shards] {
					t.Fatalf("shard %d/%d: key %d is not the campaign's distinct cell %d", shard, shards, i, shard+i*shards)
				}
			}
			union = append(union, dealt...)
		}
		if !slices.Equal(union[:1], distinct[:1]) || len(union) != len(distinct) {
			t.Fatalf("%d shards dealt %d keys, want the %d distinct ones, the baseline first", shards, len(union), len(distinct))
		}
		slices.Sort(union)
		if want := slices.Sorted(slices.Values(distinct)); !slices.Equal(union, want) {
			t.Fatalf("%d shards: keys overlap or miss a cell", shards)
		}
	}
	for _, g := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {5, 3}} {
		if _, _, err := tinyExperiment(t, 20).RunShard(s, g[0], g[1]); err == nil {
			t.Fatalf("RunShard(%d of %d) must fail", g[0], g[1])
		}
	}
}
