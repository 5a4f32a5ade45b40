package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snnfi/internal/runner"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code: a pass, the experiment set-up, one suite entry, one cache
// level's Get or Put, or one store request as the server handled it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Pass   int64  `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"` // hit/miss, or the HTTP status
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until it ends. A nil tracer
// records nothing, which is how untraced passes run the same code.
type tracer struct {
	t0   time.Time
	pass atomic.Int64
	next atomic.Int64
	// cur is the running entry or experiment span, the parent of cache
	// spans: entries run one at a time, their cache calls on the pool's
	// workers.
	cur atomic.Int64
	// calls maps "METHOD /cell/tier/key" to the client span waiting on
	// that request, so the server side can name its parent.
	calls sync.Map

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Pass: t.pass.Load(), Name: name, Start: int64(time.Since(t.t0))}
}

// enter begins a span that parents the cache calls made under it.
func (t *tracer) enter(name string, parent int64) span {
	s := t.begin(name, parent)
	if t != nil {
		t.cur.Store(s.ID)
	}
	return s
}

func (t *tracer) end(s span, detail string) {
	if t == nil {
		return
	}
	s.End, s.Detail = int64(time.Since(t.t0)), detail
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byPass returns the recorded spans grouped by pass id.
func (t *tracer) byPass() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range t.spans {
		out[s.Pass] = append(out[s.Pass], s)
	}
	return out
}

// write stores every span as one JSON line, in start order, and
// returns how many it wrote.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// tracedCache records a span around every Get and Put of one cache
// level. name is the level ("cache.circuit.mem"); path is the store
// route prefix of an HTTP level ("/cell/circuit/"), empty for memory.
type tracedCache[T any] struct {
	tr    *tracer
	name  string
	path  string
	inner runner.Cache[T]
}

// traced wraps one cache level; untraced, it returns the level as is.
func traced[T any](tr *tracer, name, tier string, inner runner.Cache[T]) runner.Cache[T] {
	if tr == nil {
		return inner
	}
	c := &tracedCache[T]{tr: tr, name: name, inner: inner}
	if tier != "" {
		c.path = "/cell/" + tier + "/"
	}
	return c
}

func (c *tracedCache[T]) Get(key string) (T, bool) {
	s := c.tr.begin(c.name+".get", c.tr.cur.Load())
	done := c.call(http.MethodGet, key, s.ID)
	v, ok := c.inner.Get(key)
	done()
	detail := "miss"
	if ok {
		detail = "hit"
	}
	c.tr.end(s, detail)
	return v, ok
}

func (c *tracedCache[T]) Put(key string, v T) {
	s := c.tr.begin(c.name+".put", c.tr.cur.Load())
	done := c.call(http.MethodPut, key, s.ID)
	c.inner.Put(key, v)
	done()
	c.tr.end(s, "")
}

// call registers the span as the parent of the store request it is
// about to make.
func (c *tracedCache[T]) call(method, key string, id int64) func() {
	if c.path == "" {
		return func() {}
	}
	k := method + " " + c.path + key
	c.tr.calls.Store(k, id)
	return func() { c.tr.calls.Delete(k) }
}

// tracedHandler records a span around every request the store serves.
type tracedHandler struct {
	tr   *tracer
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := h.tr.cur.Load()
	if id, ok := h.tr.calls.Load(r.Method + " " + r.URL.Path); ok {
		parent = id.(int64)
	}
	s := h.tr.begin("fabric."+strings.ToLower(r.Method), parent)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	h.tr.end(s, strconv.Itoa(sw.status))
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover. Children of one span may overlap (the
// pool runs two cells at once), so the covered part is the union of
// their intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case name == "pass":
		return "pass"
	case name == "experiment", strings.HasPrefix(name, "entry:"):
		return "suite"
	case strings.HasSuffix(name, ".mem.get"), strings.HasSuffix(name, ".mem.put"):
		return "cache_mem"
	case strings.HasPrefix(name, "cache."):
		return "cache_http"
	}
	return "fabric"
}
