package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"

	"snnfi/internal/obs"
)

// Cache memoizes job results by content-address. Implementations must
// be safe for concurrent use.
type Cache[T any] interface {
	Get(key string) (T, bool)
	Put(key string, v T)
}

// batchGetter is a Cache that answers many lookups in one call:
// GetMany returns one value and one found flag per key, in key order,
// and counts each key as Get would. Pool.Run looks a batch's keyed
// jobs up through it before dispatching them, so a chain over the
// HTTP store pays one round trip per batch instead of one per job.
type batchGetter[T any] interface {
	GetMany(keys []string) ([]T, []bool)
}

// getMany looks keys up in c: in one call when c answers batches,
// else key by key.
func getMany[T any](c Cache[T], keys []string) ([]T, []bool) {
	if b, ok := c.(batchGetter[T]); ok {
		return b.GetMany(keys)
	}
	vs, oks := make([]T, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		vs[i], oks[i] = c.Get(k)
	}
	return vs, oks
}

// MemoryCache is an in-process Cache with hit/miss accounting. The
// zero value and a nil pointer are both usable (a nil cache never hits
// and drops every Put), so callers can pass caches around without
// nil-guarding.
type MemoryCache[T any] struct {
	mu sync.Mutex
	m  map[string]T

	// Accounting lives in obs counters so Instrument can publish the
	// very same atomics into a telemetry registry — Stats() stays a
	// thin reader and can never disagree with the exported values.
	hits   obs.Counter
	misses obs.Counter
	puts   obs.Counter
}

// NewMemoryCache returns an empty cache.
func NewMemoryCache[T any]() *MemoryCache[T] {
	return &MemoryCache[T]{m: make(map[string]T)}
}

// Get returns the cached value for key, if any.
func (c *MemoryCache[T]) Get(key string) (T, bool) {
	var zero T
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		return v, true
	}
	c.misses.Inc()
	return zero, false
}

// Put stores v under key, replacing any previous value.
func (c *MemoryCache[T]) Put(key string, v T) {
	if c == nil {
		return
	}
	c.puts.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]T)
	}
	c.m[key] = v
}

// Len reports how many results the cache holds.
func (c *MemoryCache[T]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports lookup hits and misses since creation.
func (c *MemoryCache[T]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Value(), c.misses.Value()
}

// Puts reports how many values have been stored since creation
// (including Tiered promotions into this tier).
func (c *MemoryCache[T]) Puts() int64 {
	if c == nil {
		return 0
	}
	return c.puts.Value()
}

// Instrument publishes the cache's counters into r under
// "<name>.hits", "<name>.misses" and "<name>.puts". The registered
// counters are the cache's own accounting atomics, so the registry
// and Stats always agree. Nil receiver or registry is a no-op.
func (c *MemoryCache[T]) Instrument(r *obs.Registry, name string) {
	if c == nil {
		return
	}
	r.RegisterCounter(name+".hits", &c.hits)
	r.RegisterCounter(name+".misses", &c.misses)
	r.RegisterCounter(name+".puts", &c.puts)
}

// KeyOf content-addresses a job specification: it hashes an
// address-free canonical rendering of each part — configs, plans,
// seeds — into a hex digest.
//
// Contract: parts must be plain data — bools, integers, floats,
// complex numbers, strings, and arrays, slices, maps, structs and
// pointers thereof. Pointers are followed (a nil pointer renders as
// nil), so two structurally equal specifications key identically
// regardless of allocation — across processes included. Map entries
// are hashed in sorted key order. Channels, funcs, unsafe pointers and
// uintptrs identify runtime objects rather than data and make KeyOf
// panic. (The previous %#v-based implementation silently keyed nested
// pointer fields on their hex address, breaking cache determinism
// across processes.)
func KeyOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		writeCanonical(h, reflect.ValueOf(p), 0)
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DeriveSeed deterministically derives a child seed from a base seed
// and a set of discriminators (e.g. sweep coordinates), for campaigns
// whose jobs need distinct but replayable randomness. Discriminators
// are rendered through the same address-free canonical form KeyOf
// uses (the previous %#v rendering embedded the hex addresses of
// pointer fields, which made seeds vary run to run), so replaying a
// campaign — at any worker count, in any process — reproduces every
// job's seed exactly. The KeyOf data-only contract applies.
func DeriveSeed(base int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x1f", base)
	for _, p := range parts {
		writeCanonical(h, reflect.ValueOf(p), 0)
		h.Write([]byte{0x1f})
	}
	return int64(h.Sum64())
}
