package runner

import (
	"fmt"

	"snnfi/internal/obs"
)

// Chain composes any number of caches fastest-first, write-through:
// a lookup probes levels in order and promotes a deeper hit into
// every faster level; Put stores in all levels. The canonical
// compositions are memory→disk (the -cache-dir wiring) and
// memory→disk→http (the campaign-fabric wiring, where the deepest
// level is a shared store every worker process writes through).
//
// Promotion accounting mirrors the member caches' Instrument pattern:
// each level below the fastest owns a counter of how many of its hits
// were promoted upward, published as "<name>.promote.l<i>". The
// no-double-counting contract of the old two-level Tiered holds at
// any depth: a lookup that hits level i costs exactly one hit at
// level i, one miss at each faster level, and one Put into each
// faster level (the promotions) — deeper levels are never probed.
type Chain[T any] struct {
	levels   []Cache[T]
	promotes []obs.Counter // promotes[i]: level-i hits promoted upward (index 0 unused)
}

// NewChain builds the write-through composition, fastest level first.
// Nil levels are dropped, so callers can pass optional tiers
// unconditionally; at least one level must remain.
func NewChain[T any](levels ...Cache[T]) *Chain[T] {
	kept := make([]Cache[T], 0, len(levels))
	for _, l := range levels {
		if l != nil {
			kept = append(kept, l)
		}
	}
	if len(kept) == 0 {
		panic("runner: NewChain needs at least one non-nil level")
	}
	return &Chain[T]{levels: kept, promotes: make([]obs.Counter, len(kept))}
}

// Len reports the number of levels in the chain.
func (c *Chain[T]) Len() int { return len(c.levels) }

// Get implements Cache: a one-key GetMany.
func (c *Chain[T]) Get(key string) (T, bool) {
	vs, oks := c.GetMany([]string{key})
	return vs[0], oks[0]
}

// GetMany looks keys up level by level, fastest first: each level is
// probed once, for the keys still missing, and the first hit wins. A
// hit is promoted into every faster level, so the next lookup stops
// sooner, and counted in the promotion counter of the level that
// served it. A level that answers batches (the HTTP store) gets its
// keys in one call; in-process levels are asked key by key. A key
// given twice is looked up twice, both times before either hit is
// promoted.
func (c *Chain[T]) GetMany(keys []string) ([]T, []bool) {
	vs, oks := make([]T, len(keys)), make([]bool, len(keys))
	missing := make([]int, len(keys)) // indices into keys, in order
	for i := range missing {
		missing[i] = i
	}
	for li, l := range c.levels {
		if len(missing) == 0 {
			break
		}
		ks := make([]string, len(missing))
		for m, i := range missing {
			ks[m] = keys[i]
		}
		lvs, loks := getMany(l, ks)
		still := missing[:0]
		for m, i := range missing {
			if !loks[m] {
				still = append(still, i)
				continue
			}
			vs[i], oks[i] = lvs[m], true
			if li > 0 {
				c.promotes[li].Inc()
				for j := 0; j < li; j++ {
					c.levels[j].Put(keys[i], lvs[m])
				}
			}
		}
		missing = still
	}
	return vs, oks
}

// Put implements Cache: write-through to every level.
func (c *Chain[T]) Put(key string, v T) {
	for _, l := range c.levels {
		l.Put(key, v)
	}
}

// Promotions reports how many hits at level i (1-based from the first
// non-fastest level … len-1) were promoted into faster levels.
func (c *Chain[T]) Promotions(i int) int64 {
	if i <= 0 || i >= len(c.promotes) {
		return 0
	}
	return c.promotes[i].Value()
}

// Instrument publishes the per-level promotion counters into r under
// "<name>.promote.l<i>" for every level that can be promoted from
// (all but the fastest). The member caches instrument themselves —
// the chain only owns the promotion flow between them.
func (c *Chain[T]) Instrument(r *obs.Registry, name string) {
	if c == nil {
		return
	}
	for i := 1; i < len(c.promotes); i++ {
		r.RegisterCounter(fmt.Sprintf("%s.promote.l%d", name, i), &c.promotes[i])
	}
}
