// Package fabric is the server side of the distributed campaign
// fabric: an HTTP content store over DiskCache tiers (the wire format
// runner.HTTPCache speaks, runner.StoreProtocol) — the north-star
// shape where cold campaigns fan out across worker processes and warm
// ones are cache-hit reads at web latency. A cell is looked up only by
// its key, so the store links nothing that trains or simulates.
//
// The store holds content-addressed result cells: the key is a
// runner.KeyOf digest of everything that determines the value, so
// cells never conflict, never need invalidation, and any number of
// workers may PUT the same key concurrently (each PUT appends a
// record, the last one wins, and the payloads are byte-identical).
// Correctness therefore never depends on the store — a lost cell is
// recomputed by whoever misses it.
package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

// tierPat bounds tier names to safe directory names; cell keys need no
// check because DiskCache keeps them as strings inside its log.
var tierPat = regexp.MustCompile(`^[a-z0-9_-]{1,32}$`)

// Server serves one store directory (per-tier DiskCache
// subdirectories, the exact -cache-dir layout). Create with NewServer,
// mount via Handler.
type Server struct {
	dir string
	reg *obs.Registry
	mux *http.ServeMux

	mu    sync.Mutex
	tiers map[string]*runner.DiskCache[json.RawMessage]
}

// NewServer opens (creating if needed) a store over dir. The registry
// backs /metrics and the per-tier cache counters; nil disables
// telemetry but keeps every route working.
func NewServer(dir string, reg *obs.Registry) (*Server, error) {
	s := &Server{
		dir:   dir,
		reg:   reg,
		tiers: map[string]*runner.DiskCache[json.RawMessage]{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /cell/{tier}/{key}", s.handleGetCell)
	mux.HandleFunc("POST /cell/{tier}", s.handleGetCells)
	mux.HandleFunc("PUT /cell/{tier}/{key}", s.handlePutCell)
	s.mux = mux
	// Seed the request counters so /metrics shows the full shape from
	// the first scrape.
	for _, n := range []string{"store.gets", "store.batches", "store.puts"} {
		reg.Counter(n)
	}
	return s, nil
}

// Handler returns the store's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Dir returns the store's root directory.
func (s *Server) Dir() string { return s.dir }

// tier returns (creating if needed) the DiskCache for one tier name,
// or nil if the name is outside the sanctioned alphabet.
func (s *Server) tier(name string) (*runner.DiskCache[json.RawMessage], error) {
	if !tierPat.MatchString(name) {
		return nil, fmt.Errorf("invalid tier %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if dc, ok := s.tiers[name]; ok {
		return dc, nil
	}
	dc, err := runner.NewDiskCache[json.RawMessage](s.dir + "/" + name)
	if err != nil {
		return nil, err
	}
	dc.Instrument(s.reg, "store.disk."+name)
	s.tiers[name] = dc
	return dc, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "protocol": runner.StoreProtocol})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.reg.Snapshot())
}

func (s *Server) handleGetCell(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("store.gets").Inc()
	defer obs.Span(s.reg, "store.get").End()
	t, err := s.tier(r.PathValue("tier"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw, ok := t.Raw(r.PathValue("key"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// maxBatchBody bounds a batch lookup's body: about 120,000 keys of 64
// hex digits, far more than any pool batch.
const maxBatchBody = 8 << 20

// handleGetCells answers a batch lookup: the body is a JSON array of
// keys, the answer an array of as many cells, null for a miss. Each
// key counts in store.gets, as one GET would; store.batches counts the
// requests.
func (s *Server) handleGetCells(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("store.batches").Inc()
	defer obs.Span(s.reg, "store.get_many").End()
	t, err := s.tier(r.PathValue("tier"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := readBody(r, maxBatchBody)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var keys []string
	if err := json.Unmarshal(body, &keys); err != nil || keys == nil {
		http.Error(w, "body is not a JSON array of keys", http.StatusBadRequest)
		return
	}
	s.reg.Counter("store.gets").Add(int64(len(keys)))
	out := []byte{'['}
	for i, k := range keys {
		if i > 0 {
			out = append(out, ',')
		}
		if raw, ok := t.Raw(k); ok {
			out = append(out, raw...)
		} else {
			out = append(out, "null"...)
		}
	}
	out = append(out, ']')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (s *Server) handlePutCell(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("store.puts").Inc()
	defer obs.Span(s.reg, "store.put").End()
	t, err := s.tier(r.PathValue("tier"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := readBody(r, 64<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A cell that does not parse would poison every future Get into a
	// corrupt-miss; reject it at the door instead.
	if !json.Valid(body) {
		http.Error(w, "cell body is not valid JSON", http.StatusBadRequest)
		return
	}
	if t.Append(r.PathValue("key"), json.RawMessage(body)) != nil {
		// 5xx so the client's bounded retry gets a chance; DiskCache
		// already remembered the error for the operator.
		http.Error(w, "store write failed", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readBody(r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return data, nil
}
