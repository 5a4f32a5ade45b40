package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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
			http.MethodGet: {}, http.MethodPut: {}, http.MethodPost: {},
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
	case r.Method == http.MethodPost && r.URL.Path == "/cell/network":
		var keys []string
		if err := json.NewDecoder(r.Body).Decode(&keys); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cells := make([]string, len(keys))
		for i, k := range keys {
			cells[i] = "null"
			if data, ok := s.cells[k]; ok {
				cells[i] = string(data)
			}
		}
		io.WriteString(w, "["+strings.Join(cells, ",")+"]")
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
	// An exhausted batch lookup is a miss, and an error, for every key.
	stub.failNext[http.MethodPost].Store(1000)
	if _, oks := c.GetMany([]string{"k", "absent"}); oks[0] || oks[1] {
		t.Fatal("a down store must degrade a batch to misses")
	}
	if e := c.Errors(); e != 3 {
		t.Fatalf("errors = %d, want 1 + one per batch key = 3", e)
	}
	if h, m := c.Stats(); h != 0 || m != 3 {
		t.Fatalf("stats = %d hits/%d misses, want 0/3", h, m)
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
	// One put + one get with one retry + one miss = 4 round trips, of
	// which 3 are requests and 1 a retry.
	if rt.Count != 4 {
		t.Fatalf("round-trip histogram count = %d, want 4", rt.Count)
	}
	if got := snap.Counters["cache.http.requests"]; got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
}

// TestHTTPCacheGetMany: one POST answers many keys in key order, and
// each key counts as one hit or miss, as Get counts it. A cell that
// does not decode is a miss and an error for its key alone.
func TestHTTPCacheGetMany(t *testing.T) {
	c, stub := newTestHTTPCache[cachedResult](t)
	reg := obs.NewRegistry()
	c.Instrument(reg, "cache.http")
	a, cc := cachedResult{Name: "a", Acc: 0.5}, cachedResult{Name: "c"}
	c.Put("a", a)
	c.Put("c", cc)
	stub.mu.Lock()
	stub.cells["bad"] = []byte(`{"Name":1}`) // valid JSON, not a cachedResult
	stub.mu.Unlock()

	before := stub.requests.Load()
	vs, oks := c.GetMany([]string{"a", "b", "c", "bad", "a"})
	if n := stub.requests.Load() - before; n != 1 {
		t.Fatalf("a batch of 5 keys made %d requests, want 1", n)
	}
	want := []struct {
		v  cachedResult
		ok bool
	}{{a, true}, {cachedResult{}, false}, {cc, true}, {cachedResult{}, false}, {a, true}}
	for i, w := range want {
		if oks[i] != w.ok || vs[i] != w.v {
			t.Fatalf("key %d = %+v, %v; want %+v, %v", i, vs[i], oks[i], w.v, w.ok)
		}
	}
	if h, m := c.Stats(); h != 3 || m != 2 {
		t.Fatalf("stats = %d hits/%d misses, want 3/2", h, m)
	}
	if e := c.Errors(); e != 1 {
		t.Fatalf("errors = %d, want 1 (the cell that does not decode)", e)
	}
	if got := reg.Snapshot().Counters["cache.http.requests"]; got != 3 {
		t.Fatalf("requests = %d, want 2 puts + 1 batch = 3", got)
	}
	if vs, oks := c.GetMany(nil); len(vs) != 0 || len(oks) != 0 || stub.requests.Load()-before != 1 {
		t.Fatal("an empty batch must answer empty without a request")
	}
}

// TestHTTPCacheGetManyRejected: an answer other than a 200 is a miss
// and an error for every key, whatever its body. A store that predates
// the batch route answers 404. (FuzzHTTPCacheGetMany's seeds cover
// malformed 200 answers.)
func TestHTTPCacheGetManyRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"old store", http.StatusNotFound, `404 page not found`},
		{"bad request", http.StatusBadRequest, `[null,null]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			c := NewHTTPCache[cachedResult](srv.URL, "network")
			if _, oks := c.GetMany([]string{"k0", "k1"}); oks[0] || oks[1] {
				t.Fatal("a rejected batch must miss every key")
			}
			if h, m := c.Stats(); h != 0 || m != 2 {
				t.Fatalf("stats = %d hits/%d misses, want 0/2", h, m)
			}
			if e := c.Errors(); e != 2 {
				t.Fatalf("errors = %d, want one per key (2)", e)
			}
		})
	}
}

// FuzzHTTPCacheGetMany: any answer body leaves GetMany without a
// panic. An answer that is not a JSON array of one cell per key misses
// every key, with one error each; otherwise each cell is a miss when
// null or undecodable and a hit with its decoded value else.
func FuzzHTTPCacheGetMany(f *testing.F) {
	for _, seed := range []string{
		`[null,{"Name":"x","Acc":0.5}]`,
		`[{"Name":"x","Inner":{"Acc":1}},null]`,
		`[{"Name":1},"s"]`,
		`[null]`,
		`[null,null,null]`,
		`[null,null] x`,
		`[null,{"Name":"a"`,
		`{}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(*body.Load())
	}))
	f.Cleanup(srv.Close)
	keys := []string{"k0", "k1"}
	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		c := NewHTTPCache[cachedResult](srv.URL, "network")
		vs, oks := c.GetMany(keys)
		if len(vs) != len(keys) || len(oks) != len(keys) {
			t.Fatalf("%d values and %d flags for %d keys", len(vs), len(oks), len(keys))
		}
		hits, misses := c.Stats()
		if hits+misses != int64(len(keys)) {
			t.Fatalf("%d hits + %d misses for %d keys", hits, misses, len(keys))
		}
		var cells []json.RawMessage
		if json.Unmarshal(data, &cells) != nil || len(cells) != len(keys) {
			if hits != 0 || c.Errors() != int64(len(keys)) {
				t.Fatalf("malformed answer: %d hits, %d errors; want 0 and %d", hits, c.Errors(), len(keys))
			}
			return
		}
		for i, raw := range cells {
			var want cachedResult
			ok := string(raw) != "null" && json.Unmarshal(raw, &want) == nil
			if oks[i] != ok || (ok && !reflect.DeepEqual(vs[i], want)) {
				t.Fatalf("cell %d %s: got %+v, %v", i, raw, vs[i], oks[i])
			}
		}
	})
}

// TestPoolOneStoreRequestPerBatch: a pool over memory → HTTP store
// looks a batch up in one request, however many keys miss memory, and
// still writes one PUT per computed cell. A warm batch, served from
// memory, makes no request.
func TestPoolOneStoreRequestPerBatch(t *testing.T) {
	httpc, stub := newTestHTTPCache[int](t)
	for i := 0; i < 4; i++ { // another process stored cells 0-3
		httpc.Put(fmt.Sprintf("k%d", i), 100+i)
	}
	jobs := make([]Job[int], 10)
	var runs atomic.Int64
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("k%d", i), Run: func() (int, error) {
			runs.Add(1)
			return 100 + i, nil
		}}
	}
	p := &Pool[int]{Workers: 2, Cache: NewChain[int](NewMemoryCache[int](), httpc)}
	before := stub.requests.Load()
	got, err := p.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 100+i {
			t.Fatalf("result[%d] = %d, want %d", i, v, 100+i)
		}
	}
	if n := runs.Load(); n != 6 {
		t.Fatalf("computed %d cells, want the 6 the store lacks", n)
	}
	if n := stub.requests.Load() - before; n != 1+6 {
		t.Fatalf("%d store requests, want 1 batch lookup + 6 PUTs", n)
	}
	if h, m := httpc.Stats(); h != 4 || m != 6 {
		t.Fatalf("store stats = %d hits/%d misses, want 4/6", h, m)
	}
	before = stub.requests.Load()
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := stub.requests.Load() - before; n != 0 {
		t.Fatalf("a batch memory serves made %d store requests, want 0", n)
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
