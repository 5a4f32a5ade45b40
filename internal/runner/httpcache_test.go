package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snnfi/internal/obs"
)

// storeStub is a minimal in-memory implementation of the store
// protocol (the cmd/cached wire format), with per-route failure
// injection so the client's retry/backoff and degrade-to-miss paths
// can be driven deterministically.
type storeStub struct {
	mu    sync.Mutex
	cells map[string][]byte

	// failNext[method] forces that many 500s before the next success.
	failNext map[string]*atomic.Int64
	requests atomic.Int64
}

func newStoreStub() *storeStub {
	return &storeStub{
		cells: map[string][]byte{},
		failNext: map[string]*atomic.Int64{
			http.MethodGet: {}, http.MethodPut: {},
		},
	}
}

func (s *storeStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if f := s.failNext[r.Method]; f != nil && f.Load() > 0 {
		f.Add(-1)
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/manifest/network":
		keys := make([]string, 0, len(s.cells))
		for k := range s.cells {
			keys = append(keys, k)
		}
		json.NewEncoder(w).Encode(keys)
	case r.Method == http.MethodGet:
		key := r.URL.Path[len("/cell/network/"):]
		data, ok := s.cells[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	case r.Method == http.MethodPut:
		key := r.URL.Path[len("/cell/network/"):]
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.cells[key] = data
		w.WriteHeader(http.StatusNoContent)
	default:
		http.NotFound(w, r)
	}
}

func newTestHTTPCache[T any](t *testing.T) (*HTTPCache[T], *storeStub) {
	t.Helper()
	stub := newStoreStub()
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)
	c := NewHTTPCache[T](srv.URL, "network")
	c.Backoff = time.Millisecond // keep retry tests fast
	return c, stub
}

// TestHTTPCacheReusesConnection: sequential lookups and writes through
// one cache share one keep-alive connection, whatever the status. A
// response body closed unread — a 404 miss's included — makes the
// client drop the connection, so a cold campaign would dial once per
// cell.
func TestHTTPCacheReusesConnection(t *testing.T) {
	const n = 20
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(newStoreStub())
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewHTTPCache[cachedResult](srv.URL, "network")
	c.Client = &http.Client{Transport: tr}

	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("miss%d", i)); ok {
			t.Fatal("empty store must miss")
		}
	}
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("k%d", i), cachedResult{Name: "cell"})
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d: stored cell missed", i)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("%d misses, %d puts and %d hits opened %d connections, want 1", n, n, n, got)
	}
}

func TestHTTPCacheRoundTrip(t *testing.T) {
	c, _ := newTestHTTPCache[cachedResult](t)

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty store must miss")
	}
	want := cachedResult{Name: "cell", Acc: 0.125}
	c.Put("k1", want)
	got, ok := c.Get("k1")
	if !ok || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, ok, want)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits/%d misses, want 1/1", h, m)
	}
	if c.Err() != nil {
		t.Fatalf("unexpected persistence error: %v", c.Err())
	}

	keys, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k1" {
		t.Fatalf("manifest = %v, want [k1]", keys)
	}
}

// TestHTTPCacheRetrySucceeds: transient 5xx responses are retried with
// backoff and the operation still succeeds within the attempt budget,
// counting one retry per extra attempt.
func TestHTTPCacheRetrySucceeds(t *testing.T) {
	c, stub := newTestHTTPCache[cachedResult](t)
	c.Put("k", cachedResult{Name: "v"})

	stub.failNext[http.MethodGet].Store(2) // 2 failures, 3rd attempt wins
	if _, ok := c.Get("k"); !ok {
		t.Fatal("get must survive transient failures")
	}
	if r := c.Retries(); r != 2 {
		t.Fatalf("retries = %d, want 2", r)
	}
	if e := c.Errors(); e != 0 {
		t.Fatalf("errors = %d, want 0 (the operation succeeded)", e)
	}

	stub.failNext[http.MethodPut].Store(1)
	c.Put("k2", cachedResult{Name: "v2"})
	if c.Err() != nil {
		t.Fatalf("put with one transient failure must recover, got %v", c.Err())
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("recovered put must be readable")
	}
}

// TestHTTPCacheDegradeToMiss: a store that stays down exhausts the
// bounded retries and degrades exactly like a damaged DiskCache —
// Get misses (recompute, never fail), Put is remembered via Err and
// the one-shot warning, and the campaign goes on.
func TestHTTPCacheDegradeToMiss(t *testing.T) {
	c, stub := newTestHTTPCache[cachedResult](t)
	c.MaxAttempts = 3
	c.Put("k", cachedResult{Name: "v"})

	stub.failNext[http.MethodGet].Store(1000)
	if _, ok := c.Get("k"); ok {
		t.Fatal("a down store must degrade to a miss")
	}
	if e := c.Errors(); e != 1 {
		t.Fatalf("errors = %d, want 1 failed operation", e)
	}
	if r := c.Retries(); r != 2 {
		t.Fatalf("retries = %d, want MaxAttempts-1 = 2", r)
	}
	if c.Err() != nil {
		t.Fatal("lookup failures must never set the persistence error")
	}

	var warned int
	c.OnFirstWriteError = func(error) { warned++ }
	stub.failNext[http.MethodPut].Store(1000)
	c.Put("k2", cachedResult{Name: "x"})
	c.Put("k3", cachedResult{Name: "y"})
	if c.Err() == nil {
		t.Fatal("exhausted puts must be remembered")
	}
	if warned != 1 {
		t.Fatalf("OnFirstWriteError fired %d times, want exactly 1", warned)
	}
}

// TestHTTPCacheCorruptDegradesToMiss mirrors the DiskCache contract:
// a cell that arrives but does not decode counts as an error and a
// miss, never a failure.
func TestHTTPCacheCorruptDegradesToMiss(t *testing.T) {
	c, stub := newTestHTTPCache[cachedResult](t)
	stub.mu.Lock()
	stub.cells["bad"] = []byte("{not json")
	stub.mu.Unlock()
	if _, ok := c.Get("bad"); ok {
		t.Fatal("corrupt cell must miss")
	}
	if e := c.Errors(); e != 1 {
		t.Fatalf("errors = %d, want 1", e)
	}
}

// TestHTTPCacheInstrument checks the registry exports the cache's own
// atomics (counters and the round-trip histogram).
func TestHTTPCacheInstrument(t *testing.T) {
	c, stub := newTestHTTPCache[cachedResult](t)
	reg := obs.NewRegistry()
	c.Instrument(reg, "cache.http")

	c.Put("k", cachedResult{Name: "v"})
	stub.failNext[http.MethodGet].Store(1)
	c.Get("k")
	c.Get("absent")

	snap := reg.Snapshot()
	h, m := c.Stats()
	if snap.Counters["cache.http.hits"] != h || h != 1 {
		t.Fatalf("hits: registry %d, stats %d, want 1", snap.Counters["cache.http.hits"], h)
	}
	if snap.Counters["cache.http.misses"] != m || m != 1 {
		t.Fatalf("misses: registry %d, stats %d, want 1", snap.Counters["cache.http.misses"], m)
	}
	if snap.Counters["cache.http.puts"] != 1 {
		t.Fatalf("puts = %d, want 1", snap.Counters["cache.http.puts"])
	}
	if snap.Counters["cache.http.retries"] != c.Retries() || c.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", snap.Counters["cache.http.retries"])
	}
	rt := snap.Histograms["cache.http.rt"]
	// One put + one get with one retry + one miss = 4 round trips.
	if rt.Count != 4 {
		t.Fatalf("round-trip histogram count = %d, want 4", rt.Count)
	}
}

// TestHTTPCacheInChain: the fabric composition — memory over HTTP —
// promotes store hits into the process-local tier, so a warm campaign
// pays one round trip per cell, not one per lookup.
func TestHTTPCacheInChain(t *testing.T) {
	httpc, stub := newTestHTTPCache[cachedResult](t)
	mem := NewMemoryCache[cachedResult]()
	chain := NewChain[cachedResult](Cache[cachedResult](mem), httpc)

	// Another process wrote the cell.
	data, _ := json.Marshal(cachedResult{Name: "remote", Acc: 1})
	stub.mu.Lock()
	stub.cells["k"] = data
	stub.mu.Unlock()

	if v, ok := chain.Get("k"); !ok || v.Name != "remote" {
		t.Fatalf("store cell not served through the chain: %+v %v", v, ok)
	}
	before := stub.requests.Load()
	if _, ok := chain.Get("k"); !ok {
		t.Fatal("promoted cell must hit")
	}
	if after := stub.requests.Load(); after != before {
		t.Fatalf("promoted lookup still hit the store (%d -> %d requests)", before, after)
	}
	if p := chain.Promotions(1); p != 1 {
		t.Fatalf("promotions = %d, want 1", p)
	}
}
