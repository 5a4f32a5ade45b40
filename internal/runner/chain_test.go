package runner

import (
	"testing"

	"snnfi/internal/obs"
)

// TestChainThreeLevelPromotion pins the N-deep generalization of the
// old Tiered contract: a hit at the deepest level is promoted into
// every faster level (one Put each), deeper levels are never probed
// past the hit, and the promotion counters attribute the hit to the
// level that served it. A batch of keys held at different depths
// obeys the same rule key by key.
func TestChainThreeLevelPromotion(t *testing.T) {
	l0 := NewMemoryCache[int]()
	l1 := NewMemoryCache[int]()
	l2 := NewMemoryCache[int]()
	c := NewChain[int](l0, l1, l2)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}

	// A deepest-only entry (another process wrote it through the shared
	// store) serves and promotes into both faster levels.
	l2.Put("cold", 7)
	if v, ok := c.Get("cold"); !ok || v != 7 {
		t.Fatalf("deep entry not served: %d %v", v, ok)
	}
	if v, ok := l0.Get("cold"); !ok || v != 7 {
		t.Fatal("deep hit not promoted to level 0")
	}
	if v, ok := l1.Get("cold"); !ok || v != 7 {
		t.Fatal("deep hit not promoted to level 1")
	}
	if p := c.Promotions(2); p != 1 {
		t.Fatalf("level-2 promotions = %d, want 1", p)
	}
	if p := c.Promotions(1); p != 0 {
		t.Fatalf("level-1 promotions = %d, want 0 (level 2 served)", p)
	}
	// Promotion cost exactly one Put per faster level, none downward.
	if p0, p1 := l0.Puts(), l1.Puts(); p0 != 1 || p1 != 1 {
		t.Fatalf("promotion puts = %d/%d, want exactly 1/1", p0, p1)
	}

	// The promoted entry now serves from the fastest level; deeper
	// levels see no more lookups.
	h1Before, m1Before := l1.Stats()
	if _, ok := c.Get("cold"); !ok {
		t.Fatal("promoted entry must hit")
	}
	if h1, m1 := l1.Stats(); h1 != h1Before || m1 != m1Before {
		t.Fatalf("level 1 probed after promotion: %d/%d -> %d/%d", h1Before, m1Before, h1, m1)
	}

	// A middle-level hit promotes only upward.
	l1.Put("mid", 3)
	if v, ok := c.Get("mid"); !ok || v != 3 {
		t.Fatalf("mid entry not served: %d %v", v, ok)
	}
	if _, ok := l0.Get("mid"); !ok {
		t.Fatal("mid hit not promoted to level 0")
	}
	if _, ok := l2.m["mid"]; ok {
		t.Fatal("promotion must never write downward")
	}
	if p := c.Promotions(1); p != 1 {
		t.Fatalf("level-1 promotions = %d, want 1", p)
	}

	// Write-through reaches every level.
	c.Put("k", 9)
	for i, l := range []*MemoryCache[int]{l0, l1, l2} {
		if v, ok := l.Get("k"); !ok || v != 9 {
			t.Fatalf("level %d missed write-through: %d %v", i, v, ok)
		}
	}

	// A full miss misses.
	if _, ok := c.Get("absent"); ok {
		t.Fatal("miss in all levels must miss")
	}

	// A batch: each key is served by the fastest level holding it, and
	// each level is probed once per key still missing above it.
	l0.Put("b0", 1)
	l1.Put("b1", 2)
	l2.Put("b1", 20) // shadowed by level 1
	l2.Put("b2", 3)
	var before [3][3]int64 // hits, misses, puts per level
	for i, l := range []*MemoryCache[int]{l0, l1, l2} {
		before[i][0], before[i][1] = l.Stats()
		before[i][2] = l.Puts()
	}
	p1, p2 := c.Promotions(1), c.Promotions(2)
	keys := []string{"b2", "none", "b0", "b1"}
	vs, oks := c.GetMany(keys)
	for i, want := range []struct {
		v  int
		ok bool
	}{{3, true}, {0, false}, {1, true}, {2, true}} {
		if vs[i] != want.v || oks[i] != want.ok {
			t.Fatalf("GetMany %s = %d, %v; want %d, %v", keys[i], vs[i], oks[i], want.v, want.ok)
		}
	}
	for i, want := range [3][3]int64{{1, 3, 2}, {1, 2, 1}, {1, 1, 0}} {
		l := []*MemoryCache[int]{l0, l1, l2}[i]
		h, m := l.Stats()
		got := [3]int64{h - before[i][0], m - before[i][1], l.Puts() - before[i][2]}
		if got != want {
			t.Fatalf("level %d batch hits/misses/puts = %v, want %v", i, got, want)
		}
	}
	if d1, d2 := c.Promotions(1)-p1, c.Promotions(2)-p2; d1 != 1 || d2 != 1 {
		t.Fatalf("batch promotions l1/l2 = %d/%d, want 1/1", d1, d2)
	}
}

// TestChainDropsNilLevels: optional tiers are passed unconditionally;
// nil levels vanish instead of panicking at lookup time.
func TestChainDropsNilLevels(t *testing.T) {
	mem := NewMemoryCache[int]()
	c := NewChain[int](mem, nil, nil)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after dropping nils", c.Len())
	}
	c.Put("k", 1)
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("get = %d,%v", v, ok)
	}
}

// TestChainInstrument publishes the promotion counters and checks the
// registry exports the same atomics Promotions reads.
func TestChainInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	l0, l1, l2 := NewMemoryCache[int](), NewMemoryCache[int](), NewMemoryCache[int]()
	c := NewChain[int](l0, l1, l2)
	c.Instrument(reg, "cache.test.chain")

	l2.Put("a", 1)
	l1.Put("b", 2)
	c.Get("a")
	c.Get("b")

	snap := reg.Snapshot()
	if got := snap.Counters["cache.test.chain.promote.l2"]; got != c.Promotions(2) || got != 1 {
		t.Fatalf("l2 promote counter = %d, Promotions = %d, want 1", got, c.Promotions(2))
	}
	if got := snap.Counters["cache.test.chain.promote.l1"]; got != c.Promotions(1) || got != 1 {
		t.Fatalf("l1 promote counter = %d, Promotions = %d, want 1", got, c.Promotions(1))
	}
	if _, ok := snap.Counters["cache.test.chain.promote.l0"]; ok {
		t.Fatal("the fastest level cannot be promoted from; no l0 counter expected")
	}
}
