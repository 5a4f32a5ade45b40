package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"snnfi/internal/obs"
)

// StoreProtocol names the shared content-store wire format the HTTP
// backend speaks (see internal/fabric for the server side):
//
//	GET  {base}/cell/{tier}/{key}   → 200 JSON cell | 404 miss
//	POST {base}/cell/{tier}         ← JSON array of keys
//	                                → 200 JSON array of as many cells, null for a miss
//	PUT  {base}/cell/{tier}/{key}   → 204 stored
//	GET  {base}/manifest/{tier}     → 200 JSON array of held keys
//
// v2 added the POST batch lookup, which Pool.Run uses through GetMany
// so that a batch of cells costs one round trip; writes stay one PUT
// per cell. Bump it when a route or body changes meaning. The server
// reports it at GET /healthz (StoreProtocolAt), and every command
// given -store reads it there once and refuses a store that speaks
// another version: a v2 client would see every batch lookup of a v1
// server fail with a 404 and recompute every cell.
const StoreProtocol = "snnfi-store-v2"

// StoreProtocolAt asks the store at base which protocol it speaks,
// through GET /healthz, in one attempt.
func StoreProtocolAt(base string) (string, error) {
	url := strings.TrimRight(base, "/") + "/healthz"
	resp, err := defaultStoreClient.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("store GET %s: %s", url, resp.Status)
	}
	var health struct {
		Protocol string `json:"protocol"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return "", fmt.Errorf("store GET %s: %w", url, err)
	}
	return health.Protocol, nil
}

// HTTPCache is a Cache backed by a shared content store served over
// HTTP (cmd/cached), the third backend next to MemoryCache and
// DiskCache and the one that makes multi-process campaigns share one
// result namespace: every worker writes cells through it, every
// coordinator and warm rerun reads them back at web latency.
//
// Error semantics deliberately match DiskCache: a lookup never fails a
// campaign. Transient transport errors and 5xx responses are retried
// with exponential backoff up to MaxAttempts; an exhausted Get
// degrades to a miss (the cell is recomputed — correctness never
// depends on the store), an exhausted Put is remembered (Err,
// OnFirstWriteError) but non-fatal, and a cell that arrives corrupt
// counts as an error and a miss. The worst a broken store can do is
// cost recomputation.
//
// Values round-trip through encoding/json exactly as DiskCache's do,
// so a campaign resumed through the store streams byte-identical
// records.
type HTTPCache[T any] struct {
	base string // "{store}/cell/{tier}", no trailing slash
	man  string // "{store}/manifest/{tier}"

	// Client is the HTTP client used for every request; nil uses a
	// dedicated client with a 30 s per-request timeout.
	Client *http.Client
	// MaxAttempts bounds each operation's tries (first attempt
	// included); ≤0 means 4.
	MaxAttempts int
	// Backoff is the delay before the first retry, doubling per retry;
	// ≤0 means 50 ms.
	Backoff time.Duration
	// OnFirstWriteError, when non-nil, is called exactly once — on the
	// first Put that exhausted its retries — mirroring DiskCache's
	// the-moment-resumability-degrades warning.
	OnFirstWriteError func(error)

	// Accounting lives in obs instruments (see MemoryCache): Instrument
	// publishes these same atomics under cache.http.* names.
	hits     obs.Counter
	misses   obs.Counter
	puts     obs.Counter
	requests obs.Counter // HTTP requests sent, first attempts only
	retries  obs.Counter
	errs     obs.Counter
	rt       obs.Histogram // per-attempt HTTP round-trip duration

	mu  sync.Mutex
	err error
}

// NewHTTPCache points a cache at one tier ("network", "circuit") of a
// store's cell namespace. base is the store root, e.g.
// "http://127.0.0.1:8475".
func NewHTTPCache[T any](base, tier string) *HTTPCache[T] {
	root := strings.TrimRight(base, "/")
	return &HTTPCache[T]{
		base: root + "/cell/" + tier,
		man:  root + "/manifest/" + tier,
	}
}

func (c *HTTPCache[T]) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return defaultStoreClient
}

// defaultStoreClient bounds every request: a hung store must degrade
// to a miss, not wedge the campaign.
var defaultStoreClient = &http.Client{Timeout: 30 * time.Second}

func (c *HTTPCache[T]) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *HTTPCache[T]) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

// do runs one request with bounded retry + exponential backoff,
// timing every attempt into the round-trip histogram. Retryable
// outcomes are transport errors and 5xx responses; everything else
// (200, 404, 4xx) is returned to the caller. On exhaustion the last
// error (or a status error) is returned.
func (c *HTTPCache[T]) do(method, url string, body []byte) (*http.Response, error) {
	c.requests.Inc()
	var lastErr error
	delay := c.backoff()
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			time.Sleep(delay)
			delay *= 2
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err // malformed URL: retrying cannot help
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		span := c.rt.Span()
		resp, err := c.client().Do(req)
		span.End()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			drainClose(resp.Body)
			lastErr = fmt.Errorf("store %s %s: %s", method, url, resp.Status)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// drainClose reads what is left of a response body, up to a bound, and
// closes it. The HTTP client reuses a connection only when the body was
// read to its end; closing an unread one, even a short 404 page, closes
// the connection, and the next request dials a new one.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
	body.Close()
}

// Get fetches the cell for key. Any failure — exhausted retries, an
// unexpected status, a body that does not decode — degrades to a miss
// (counted in the errors counter); a plain 404 is an ordinary miss.
func (c *HTTPCache[T]) Get(key string) (T, bool) {
	var zero T
	if c == nil {
		return zero, false
	}
	resp, err := c.do(http.MethodGet, c.base+"/"+key, nil)
	if err != nil {
		c.errs.Inc()
		c.misses.Inc()
		return zero, false
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusNotFound {
			c.errs.Inc()
		}
		c.misses.Inc()
		return zero, false
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		c.errs.Inc()
		c.misses.Inc()
		return zero, false
	}
	c.hits.Inc()
	return v, true
}

// GetMany fetches the cells for keys in one POST. Each key counts as
// one hit or miss, as Get counts it. An answer that fails after its
// retries, or that is not a JSON array of len(keys) cells, is a miss
// for every key, each counted in the errors counter; a cell that does
// not decode is a miss and an error for its key alone.
func (c *HTTPCache[T]) GetMany(keys []string) ([]T, []bool) {
	vs, oks := make([]T, len(keys)), make([]bool, len(keys))
	if c == nil || len(keys) == 0 {
		return vs, oks
	}
	cells, err := c.fetchMany(keys)
	if err != nil {
		n := int64(len(keys))
		c.errs.Add(n)
		c.misses.Add(n)
		return vs, oks
	}
	for i, raw := range cells {
		if string(raw) == "null" {
			c.misses.Inc()
			continue
		}
		if err := json.Unmarshal(raw, &vs[i]); err != nil {
			var zero T
			vs[i] = zero
			c.errs.Inc()
			c.misses.Inc()
			continue
		}
		oks[i] = true
		c.hits.Inc()
	}
	return vs, oks
}

// fetchMany sends one batch lookup and returns the answer's cells,
// which are as many as keys.
func (c *HTTPCache[T]) fetchMany(keys []string) ([]json.RawMessage, error) {
	body, _ := json.Marshal(keys) // a string slice always marshals
	resp, err := c.do(http.MethodPost, c.base, body)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("store POST %s: %s", c.base, resp.Status)
	}
	var cells []json.RawMessage
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, fmt.Errorf("store POST %s: %w", c.base, err)
	}
	if len(cells) != len(keys) {
		return nil, fmt.Errorf("store POST %s: %d cells for %d keys", c.base, len(cells), len(keys))
	}
	return cells, nil
}

// Put stores v under key. Exhausted retries and rejected writes are
// remembered (Err) and warned once but never fatal — a cell that
// fails to reach the store is recomputed by whoever needs it next.
func (c *HTTPCache[T]) Put(key string, v T) {
	if c == nil {
		return
	}
	c.puts.Inc()
	data, err := json.Marshal(v)
	if err != nil {
		c.setErr(err)
		return
	}
	resp, err := c.do(http.MethodPut, c.base+"/"+key, data)
	if err != nil {
		c.setErr(err)
		return
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusCreated {
		c.setErr(fmt.Errorf("store PUT %s/%s: %s", c.base, key, resp.Status))
	}
}

// Manifest fetches the keys the store's tier currently holds, sorted
// by the server — the cross-process audit view AuditScenario consumes.
// Unlike Get/Put it returns its error: sharding decisions must not be
// made against a silently empty manifest.
func (c *HTTPCache[T]) Manifest() ([]string, error) {
	if c == nil {
		return nil, nil
	}
	resp, err := c.do(http.MethodGet, c.man, nil)
	if err != nil {
		return nil, fmt.Errorf("store manifest: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp.Body)
		return nil, fmt.Errorf("store manifest: %s", resp.Status)
	}
	defer resp.Body.Close()
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, fmt.Errorf("store manifest: %w", err)
	}
	return keys, nil
}

// Err reports the first persistence failure, if any (see DiskCache.Err
// — the same surface, so cli.Session tracks both kinds of tier).
func (c *HTTPCache[T]) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats reports lookup hits and misses since creation.
func (c *HTTPCache[T]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Value(), c.misses.Value()
}

// Retries reports how many extra attempts backoff has spent.
func (c *HTTPCache[T]) Retries() int64 {
	if c == nil {
		return 0
	}
	return c.retries.Value()
}

// Errors reports how many operations finally failed after retries.
func (c *HTTPCache[T]) Errors() int64 {
	if c == nil {
		return 0
	}
	return c.errs.Value()
}

// Instrument publishes the cache's counters and round-trip histogram
// into r under "<name>.{hits,misses,puts,requests,retries,errors}" and
// "<name>.rt" — the same atomics Stats/Retries/Errors read. Hits,
// misses and puts count cells; requests counts the HTTP requests that
// carried them (a batch lookup is one), and retries the extra attempts.
func (c *HTTPCache[T]) Instrument(r *obs.Registry, name string) {
	if c == nil {
		return
	}
	r.RegisterCounter(name+".hits", &c.hits)
	r.RegisterCounter(name+".misses", &c.misses)
	r.RegisterCounter(name+".puts", &c.puts)
	r.RegisterCounter(name+".requests", &c.requests)
	r.RegisterCounter(name+".retries", &c.retries)
	r.RegisterCounter(name+".errors", &c.errs)
	r.RegisterHistogram(name+".rt", &c.rt)
}

func (c *HTTPCache[T]) setErr(err error) {
	c.errs.Inc()
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	warn := c.OnFirstWriteError
	c.mu.Unlock()
	if first && warn != nil {
		warn(err)
	}
}
