package fabric

import (
	"slices"
	"testing"
)

// TestShardPartition: every geometry covers the campaign's distinct
// cells exactly — disjoint shards, union equals the audit's distinct
// keys, near-equal sizes — and the deal is a pure function of
// (scenario, shard, shards), so every worker derives it independently.
// The shards share one store: the first geometry trains each cell, the
// later ones are dealt the same keys over a warm store.
func TestShardPartition(t *testing.T) {
	_, url, _ := newTestServer(t)
	audit, err := shardExperiment(t, "").AuditScenario(shardedScenario, func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	var distinct []string
	for _, c := range audit.Cells {
		if !slices.Contains(distinct, c.Key) {
			distinct = append(distinct, c.Key)
		}
	}
	for shards := 1; shards <= len(distinct)+1; shards++ {
		var union []string
		for shard := 0; shard < shards; shard++ {
			dealt, cells, err := shardExperiment(t, url).RunShard(shardedScenario, shard, shards)
			if err != nil {
				t.Fatal(err)
			}
			if cells != len(distinct) || len(dealt) > (cells+shards-1)/shards {
				t.Fatalf("%d shards: shard %d dealt %d of %d cells, want at most %d of %d",
					shards, shard, len(dealt), cells, (len(distinct)+shards-1)/shards, len(distinct))
			}
			union = append(union, dealt...)
		}
		if len(union) != len(distinct) {
			t.Fatalf("%d shards covered %d cells, want %d", shards, len(union), len(distinct))
		}
		slices.Sort(union)
		if want := slices.Sorted(slices.Values(distinct)); !slices.Equal(union, want) {
			t.Fatalf("%d shards: union = %v, want a permutation of %v", shards, union, distinct)
		}
	}
}

// TestShardRejectsBadGeometry: a worker launched with an impossible
// -shard/-shards pair fails loudly, and computes and stores nothing.
func TestShardRejectsBadGeometry(t *testing.T) {
	_, url, reg := newTestServer(t)
	for _, g := range []struct{ shard, shards int }{{0, 0}, {-1, 2}, {2, 2}, {5, 3}} {
		e := shardExperiment(t, url)
		if _, _, err := e.RunShard(shardedScenario, g.shard, g.shards); err == nil {
			t.Fatalf("RunShard(%d of %d) must fail", g.shard, g.shards)
		}
		if n := e.TrainCount(); n != 0 {
			t.Fatalf("RunShard(%d of %d) trained %d networks, want 0", g.shard, g.shards, n)
		}
	}
	if n := reg.Counter("store.puts").Value(); n != 0 {
		t.Fatalf("bad geometries wrote %d cells to the store, want 0", n)
	}
}
