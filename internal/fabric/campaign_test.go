package fabric

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"snnfi/internal/core"
	"snnfi/internal/defense"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// TestShardedCampaign is the fabric's contract in one process: two
// shards audit a defended Attack 3 grid against one store, run their
// round-robin share of the missing keys, and together train each
// distinct key exactly once — the attack-free baseline included, as
// shard 0's first key, with no shard waiting on another. A coordinator
// over the warmed store then trains nothing and streams JSONL
// byte-identical to a single-process run.
func TestShardedCampaign(t *testing.T) {
	_, url, _ := newTestServer(t)
	scn := &core.Scenario{
		Attack:   core.Attack3,
		Axes:     core.Axes{ChangesPc: []float64{-20, 10}, FractionsPc: []float64{0, 50, 100}},
		Defenses: []core.Hardening{defense.Sizing{WLMultiple: 32}},
	}
	experiment := func(store bool) *core.Experiment {
		cfg := snn.DefaultConfig()
		cfg.NExc, cfg.NInh = 16, 16
		cfg.Steps = 40
		e, err := core.NewExperiment("", 20, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = 2
		if store {
			e.Cache = runner.NewChain[*core.Result](e.Cache, newClient[*core.Result](t, url, networkTier))
		}
		return e
	}
	stream := func(e *core.Experiment) []byte {
		var buf bytes.Buffer
		sink := runner.NewJSONLSink(&buf)
		e.Sinks = []runner.Sink{sink}
		if _, err := e.RunScenario(scn); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	single := experiment(false)
	want := stream(single)

	// Every shard audits the cold store before any shard runs, as
	// concurrently launched workers do.
	var shards [2]*core.Experiment
	var mine [2][]string
	var missing []string
	for i := range shards {
		shards[i] = experiment(true)
		held, err := newClient[*core.Result](t, url, networkTier).Manifest()
		if err != nil {
			t.Fatal(err)
		}
		audit, err := shards[i].AuditScenario(scn, core.HeldSet(held))
		if err != nil {
			t.Fatal(err)
		}
		missing = audit.MissingKeys()
		if int64(len(missing)) != single.TrainCount() || missing[0] != audit.Cells[0].Key {
			t.Fatalf("shard %d: %d missing keys, want the %d distinct networks, baseline first", i, len(missing), single.TrainCount())
		}
		mine[i] = Shard(missing, i, len(shards))
	}
	var wg sync.WaitGroup
	var ran [2][]string
	errs := make([]error, len(shards))
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran[i], errs[i] = shards[i].RunScenarioSubset(scn, func(key string) bool { return slices.Contains(mine[i], key) })
		}()
	}
	wg.Wait()
	var trained int64
	for i := range shards {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(ran[i], mine[i]) || shards[i].TrainCount() != int64(len(mine[i])) {
			t.Fatalf("shard %d ran %d keys and trained %d networks, want its %d assigned keys once each",
				i, len(ran[i]), shards[i].TrainCount(), len(mine[i]))
		}
		trained += shards[i].TrainCount()
	}
	if trained != int64(len(missing)) || ran[0][0] != missing[0] {
		t.Fatalf("shards trained %d networks, want %d with the baseline first on shard 0", trained, len(missing))
	}

	coordinator := experiment(true)
	if got := stream(coordinator); !bytes.Equal(got, want) {
		t.Fatalf("merged JSONL differs from the single-process run:\n%s\nvs\n%s", got, want)
	}
	if n := coordinator.TrainCount(); n != 0 {
		t.Fatalf("coordinator trained %d networks over the warmed store, want 0", n)
	}
}
