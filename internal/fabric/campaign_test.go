package fabric

import (
	"bytes"
	"sync"
	"testing"

	"snnfi/internal/core"
	"snnfi/internal/defense"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// shardedScenario is a defended Attack 3 grid whose 0% cells alias the
// baseline: 13 cells, 9 distinct networks.
var shardedScenario = &core.Scenario{
	Attack:   core.Attack3,
	Axes:     core.Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{0, 50, 100}},
	Defenses: []core.Hardening{defense.Sizing{WLMultiple: 32}},
}

// shardExperiment builds a small experiment, its cache chained to the
// store at url when url is not empty.
func shardExperiment(t *testing.T, url string) *core.Experiment {
	t.Helper()
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 40
	e, err := core.NewExperiment("", 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 2
	if url != "" {
		e.Cache = runner.NewChain[*core.Result](e.Cache, newClient[*core.Result](t, url, "network"))
	}
	return e
}

// stream runs the scenario and returns its JSONL stream.
func stream(t *testing.T, e *core.Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := runner.NewJSONLSink(&buf)
	e.Sinks = []runner.Sink{sink}
	if _, err := e.RunScenario(shardedScenario); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedCampaign is the fabric's contract in one process: two
// shards run their deal of the campaign's distinct cells against one
// store at once, and together train each distinct key exactly once —
// the attack-free baseline included, as shard 0's first key, with no
// shard waiting on another. A coordinator over the warmed store then
// trains nothing and streams JSONL byte-identical to a single-process
// run.
func TestShardedCampaign(t *testing.T) {
	_, url, _ := newTestServer(t)
	single := shardExperiment(t, "")
	want := stream(t, single)

	var shards [2]*core.Experiment
	var ran [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range shards {
		shards[i] = shardExperiment(t, url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran[i], _, errs[i] = shards[i].RunShard(shardedScenario, i, len(shards))
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for i := range shards {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if shards[i].TrainCount() != int64(len(ran[i])) {
			t.Fatalf("shard %d was dealt %d cells and trained %d networks, want each once",
				i, len(ran[i]), shards[i].TrainCount())
		}
		for _, k := range ran[i] {
			if seen[k] {
				t.Fatalf("cell %s dealt twice", k)
			}
			seen[k] = true
		}
	}
	base, err := single.AuditScenario(shardedScenario, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seen)) != single.TrainCount() || ran[0][0] != base.Cells[0].Key {
		t.Fatalf("shards trained %d networks, want the %d distinct ones with the baseline first on shard 0",
			len(seen), single.TrainCount())
	}

	coordinator := shardExperiment(t, url)
	if got := stream(t, coordinator); !bytes.Equal(got, want) {
		t.Fatalf("merged JSONL differs from the single-process run:\n%s\nvs\n%s", got, want)
	}
	if n := coordinator.TrainCount(); n != 0 {
		t.Fatalf("coordinator trained %d networks over the warmed store, want 0", n)
	}
}

// TestShardsStartingApart: the deal does not depend on what the store
// holds when a shard starts. Shard 0 runs to completion before shard 1
// starts; shard 1 is still dealt its own cells and trains them, so the
// coordinator trains none. A deal from the cells missing at start would
// give shard 1 a shorter list and leave cells to the coordinator.
func TestShardsStartingApart(t *testing.T) {
	_, url, _ := newTestServer(t)
	var trained int64
	for shard := 0; shard < 2; shard++ {
		e := shardExperiment(t, url)
		dealt, cells, err := e.RunShard(shardedScenario, shard, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := (cells + 1 - shard) / 2; len(dealt) != want || e.TrainCount() != int64(want) {
			t.Fatalf("shard %d/2: dealt %d and trained %d of %d cells, want %d", shard, len(dealt), e.TrainCount(), cells, want)
		}
		trained += e.TrainCount()
	}
	coordinator := shardExperiment(t, url)
	if _, err := coordinator.RunScenario(shardedScenario); err != nil {
		t.Fatal(err)
	}
	if n := coordinator.TrainCount(); n != 0 {
		t.Fatalf("coordinator trained %d networks after both shards (%d trained), want 0", n, trained)
	}
}
