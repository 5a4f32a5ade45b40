package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

type cell struct {
	Name string  `json:"name"`
	Acc  float64 `json:"acc"`
}

func newTestServer(t *testing.T) (*Server, string, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := NewServer(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv.URL, reg
}

func newClient[T any](t *testing.T, url, tier string) *runner.HTTPCache[T] {
	t.Helper()
	c := runner.NewHTTPCache[T](url, tier)
	c.Backoff = time.Millisecond
	return c
}

// TestStoreRoundTrip drives the real client (runner.HTTPCache) against
// the real server: the integration the two in-package unit suites
// stub out.
func TestStoreRoundTrip(t *testing.T) {
	s, url, _ := newTestServer(t)
	c := newClient[cell](t, url, "network")

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty store must miss")
	}
	want := cell{Name: "n", Acc: 0.8125}
	c.Put("k1", want)
	got, ok := c.Get("k1")
	if !ok || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, ok, want)
	}
	vs, oks := c.GetMany([]string{"absent", "k1", "k1"})
	if oks[0] || !oks[1] || !oks[2] || vs[1] != want || vs[2] != want {
		t.Fatalf("batch lookup = %+v, %v; want a miss, then the cell twice", vs, oks)
	}
	if c.Err() != nil || c.Errors() != 0 {
		t.Fatalf("unexpected store errors: %v, %d", c.Err(), c.Errors())
	}

	// The store's layout IS the -cache-dir layout: a plain DiskCache
	// over the same tier subdirectory reads cells the fabric wrote.
	dc, err := runner.NewDiskCache[cell](filepath.Join(s.Dir(), "network"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := dc.Get("k1"); !ok || v != want {
		t.Fatalf("disk view of the store = %+v, %v; want %+v", v, ok, want)
	}

	// Tiers are independent namespaces.
	if _, ok := newClient[cell](t, url, "circuit").Get("k1"); ok {
		t.Fatal("tier namespaces must not alias")
	}
}

// TestStoreRejectsBadRequests: malformed cells and tier names never
// reach disk; an invalid-JSON PUT is a client error the cache
// remembers, not a poisoned entry every future Get trips over.
func TestStoreRejectsBadRequests(t *testing.T) {
	_, url, _ := newTestServer(t)

	req, _ := http.NewRequest(http.MethodPut, url+"/cell/network/bad", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON PUT: %s, want 400", resp.Status)
	}
	c := newClient[cell](t, url, "network")
	if _, ok := c.Get("bad"); ok {
		t.Fatal("rejected cell must not be stored")
	}

	for _, path := range []string{"/cell/..%2Fescape/k", "/cell/No.Such.Tier/k"} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s, want rejection", path, resp.Status)
		}
	}
	resp, err = http.Post(url+"/cell/No.Such.Tier", "application/json", strings.NewReader(`["k"]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch lookup in an invalid tier: %s, want 400", resp.Status)
	}
}

// FuzzStoreBatchLookup: any body POSTed to the batch route gets a 200
// with one cell per key, each the stored cell or null, or a 400; never
// a 5xx, never a panic.
func FuzzStoreBatchLookup(f *testing.F) {
	for _, seed := range []string{
		`["k1","absent","k1"]`, `[]`, `[""]`, `null`, `{}`, `"k1"`, `[1,2]`,
		`["k1"`, `["k1"] x`, ``, `["\u0000","../../etc"]`,
	} {
		f.Add([]byte(seed))
	}
	s, err := NewServer(f.TempDir(), nil)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	const stored = `{"name":"n","acc":0.5}`
	put := httptest.NewRecorder()
	h.ServeHTTP(put, httptest.NewRequest(http.MethodPut, "/cell/network/k1", strings.NewReader(stored)))
	if put.Code != http.StatusNoContent {
		f.Fatalf("seeding PUT: %d", put.Code)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cell/network", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var keys []string
			if err := json.Unmarshal(body, &keys); err != nil || keys == nil {
				t.Fatalf("200 for a body that is not an array of keys: %q", body)
			}
			var cells []json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil {
				t.Fatalf("answer is not a JSON array: %v: %q", err, rec.Body.Bytes())
			}
			if len(cells) != len(keys) {
				t.Fatalf("%d cells for %d keys", len(cells), len(keys))
			}
			for i, k := range keys {
				want := "null"
				if k == "k1" {
					want = stored
				}
				if string(cells[i]) != want {
					t.Fatalf("key %q: cell %s, want %s", k, cells[i], want)
				}
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzStorePut: a PUT of any body to a network cell either stores it
// (204, after which the single and the batch lookup serve the same
// bytes, and they decode to the value the body does) or is refused
// (400, after which the key still misses); never a 5xx, never a panic.
// The bytes served need not equal the body: the store compacts JSON.
func FuzzStorePut(f *testing.F) {
	for _, seed := range []struct{ key, body string }{
		{"k1", `{"name":"n","acc":0.5}`},
		{"k1", " { \"a\" : [1, 2.50, -0e3, 1e400],\n\"b\": \"<\\u00e9>\" } "},
		{"k1", `null`},
		{"k1", `{not json`},
		{"k1", ``},
		{"k1", `[1,2] x`},
		{"a b?c#d%", `"\u2028"`},
	} {
		f.Add(seed.key, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		// A key must be one path segment, and the batch route's JSON
		// body can only name a key that is valid UTF-8.
		if key == "" || key == "." || key == ".." || strings.Contains(key, "/") || !utf8.ValidString(key) {
			t.Skip()
		}
		s, err := NewServer(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		path := "/cell/network/" + url.PathEscape(key)
		keys, _ := json.Marshal([]string{key})
		put := serve(http.MethodPut, path, body)
		get := serve(http.MethodGet, path, nil)
		batch := serve(http.MethodPost, "/cell/network", keys)
		var cells []json.RawMessage
		if batch.Code != http.StatusOK || json.Unmarshal(batch.Body.Bytes(), &cells) != nil || len(cells) != 1 {
			t.Fatalf("batch lookup: %d %q", batch.Code, batch.Body.Bytes())
		}
		switch put.Code {
		case http.StatusNoContent:
			if get.Code != http.StatusOK || !bytes.Equal(get.Body.Bytes(), cells[0]) {
				t.Fatalf("stored %q: GET %d %q, batch %q", body, get.Code, get.Body.Bytes(), cells[0])
			}
			if want, got := decodeJSON(t, body), decodeJSON(t, cells[0]); !reflect.DeepEqual(got, want) {
				t.Fatalf("stored %q, served %q: %#v, want %#v", body, cells[0], got, want)
			}
		case http.StatusBadRequest:
			if get.Code != http.StatusNotFound || string(cells[0]) != "null" {
				t.Fatalf("refused %q, then GET %d %q and batch %q, want misses", body, get.Code, get.Body.Bytes(), cells[0])
			}
		default:
			t.Fatalf("PUT %q under %q: status %d", body, key, put.Code)
		}
	})
}

// decodeJSON decodes one JSON value, numbers kept as written.
func decodeJSON(t *testing.T, data []byte) any {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(data))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatalf("%q: %v", data, err)
	}
	return v
}

// TestStoreHealthAndMetrics: the health probe names the protocol both
// sides embed, and /metrics exports the request counters plus the
// per-tier disk counters.
func TestStoreHealthAndMetrics(t *testing.T) {
	_, url, _ := newTestServer(t)
	c := newClient[cell](t, url, "network")
	c.Put("k", cell{Name: "v"})
	c.Get("k")
	c.Get("absent")
	c.GetMany([]string{"k", "absent", "absent"})

	var health struct {
		OK       bool   `json:"ok"`
		Protocol string `json:"protocol"`
	}
	getJSON(t, url+"/healthz", &health)
	if !health.OK || health.Protocol != runner.StoreProtocol {
		t.Fatalf("health = %+v, want ok with protocol %q", health, runner.StoreProtocol)
	}

	var snap obs.Snapshot
	getJSON(t, url+"/metrics", &snap)
	// The batch counts one request and a lookup per key.
	if snap.Counters["store.gets"] != 5 || snap.Counters["store.batches"] != 1 || snap.Counters["store.puts"] != 1 {
		t.Fatalf("request counters = %v, want 2+3 gets / 1 batch / 1 put", snap.Counters)
	}
	if snap.Counters["store.disk.network.hits"] != 2 || snap.Counters["store.disk.network.misses"] != 3 {
		t.Fatalf("disk counters = %v, want 2 hits / 3 misses", snap.Counters)
	}
	if snap.Histograms["store.get"].Count != 2 {
		t.Fatalf("store.get histogram count = %d, want 2", snap.Histograms["store.get"].Count)
	}
}

// TestConcurrentPutsSameKey: many writers racing one content address
// (every worker that missed it computes the identical value) must end
// with a readable, uncorrupted cell and no write errors.
func TestConcurrentPutsSameKey(t *testing.T) {
	_, url, _ := newTestServer(t)
	done := make(chan *runner.HTTPCache[cell], 8)
	for i := 0; i < 8; i++ {
		go func() {
			c := newClient[cell](t, url, "network")
			for j := 0; j < 10; j++ {
				c.Put("hot", cell{Name: "same", Acc: 0.5})
			}
			done <- c
		}()
	}
	for i := 0; i < 8; i++ {
		if c := <-done; c.Err() != nil {
			t.Fatalf("racing writer failed: %v", c.Err())
		}
	}
	c := newClient[cell](t, url, "network")
	if v, ok := c.Get("hot"); !ok || v != (cell{Name: "same", Acc: 0.5}) {
		t.Fatalf("racing writers left %+v, %v", v, ok)
	}
}

// TestStorePutWriteFailure: a PUT whose append fails answers 500, so
// the client's bounded retry engages and its Err reports the failure,
// and the cell stays a miss.
func TestStorePutWriteFailure(t *testing.T) {
	s, url, reg := newTestServer(t)
	c := newClient[cell](t, url, "network")
	c.Put("ok", cell{Name: "ok"})
	// The tier directory holds only its log. A directory in its place
	// cannot be opened for appending, even by root.
	tierDir := filepath.Join(s.Dir(), "network")
	files, err := os.ReadDir(tierDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("tier directory holds %v (%v), want just the log", files, err)
	}
	log := filepath.Join(tierDir, files[0].Name())
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(log, 0o755); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPut, url+"/cell/network/k", strings.NewReader(`{"name":"k"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("PUT with a failing append: %s, want 500", resp.Status)
	}
	c.Put("k2", cell{Name: "k2"})
	if c.Err() == nil {
		t.Fatal("the client must report the failed PUT")
	}
	for _, k := range []string{"k", "k2"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("cell %q whose write failed must miss", k)
		}
	}
	if v, ok := c.Get("ok"); !ok || v.Name != "ok" {
		t.Fatalf("cell written before the failure = %+v, %v", v, ok)
	}
	if got := reg.Snapshot().Counters["store.disk.network.write_errors"]; got < 2 {
		t.Fatalf("write errors = %d, want one per failed PUT attempt (at least 2)", got)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
