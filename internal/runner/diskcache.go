package runner

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"snnfi/internal/obs"
)

// logName is the file a DiskCache keeps its records in, inside its
// directory.
const logName = "cache.jsonl"

// DiskCache is a Cache backed by one append-only log per directory, so
// results survive the process that computed them: a killed campaign
// resumed against the same directory recomputes only the missing
// entries.
//
// The log holds one JSON record per line, {"k":key,"v":value}. Put
// appends its record with a single O_APPEND write before it returns,
// and an in-memory index maps each key to the value of its latest
// record. Get, Raw and Manifest answer from the index; a lookup miss
// and every Manifest first index the bytes appended since the last
// read, so they see what other processes wrote. Holding no file open,
// a cache that is dropped leaves nothing behind.
//
// Values round-trip through encoding/json, which preserves float64
// exactly (shortest round-trip rendering), so a resumed campaign
// streams byte-identical records. The value type must therefore be
// JSON-codable: exported fields, no cycles.
//
// Writers are safe in one process and across processes: on a local
// file system the kernel appends each write whole, so records never
// interleave. Every record starts with a newline, so a torn record (a
// crash or a full disk mid-write) ends where the next record begins and
// costs only itself. A damaged record degrades to a miss, never an
// error: the worst a damaged cache can do is cost a recomputation.
type DiskCache[T any] struct {
	dir string

	// OnFirstWriteError, when non-nil, is called exactly once — on the
	// first persistence failure — so a long campaign can warn the user
	// the moment resumability degrades instead of at exit. Set it
	// before the cache is used concurrently; Err still reports the
	// error at the end either way.
	OnFirstWriteError func(error)

	// Accounting lives in obs counters (see MemoryCache): Instrument
	// publishes these same atomics, Stats reads them.
	hits      obs.Counter
	misses    obs.Counter
	puts      obs.Counter
	corrupt   obs.Counter
	writeErrs obs.Counter

	mu    sync.Mutex
	index map[string]json.RawMessage // key → value of its latest record
	read  int64                      // log bytes indexed so far
	err   error
}

// NewDiskCache opens (creating if needed) a cache directory.
func NewDiskCache[T any](dir string) (*DiskCache[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCache[T]{dir: dir, index: map[string]json.RawMessage{}}, nil
}

// Dir returns the cache directory.
func (c *DiskCache[T]) Dir() string { return c.dir }

// Get loads the value for key, if a well-formed record holds it. A
// record whose value does not decode as T counts as both a corruption
// and a miss — hits+misses stays the lookup count while the corrupt
// counter flags the damage.
func (c *DiskCache[T]) Get(key string) (T, bool) {
	var v T
	_, ok := c.lookup(key, &v)
	return v, ok
}

// Raw looks key up as Get does, but returns the value's JSON as its
// record holds it instead of decoding it: the bytes a store serves.
// They are the index's own and must not be modified.
func (c *DiskCache[T]) Raw(key string) (json.RawMessage, bool) {
	return c.lookup(key, nil)
}

// lookup finds key's latest record, decodes its value into v unless v
// is nil, and counts the lookup as one hit or one miss.
func (c *DiskCache[T]) lookup(key string, v *T) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	raw, ok := c.index[key]
	if !ok {
		c.catchUp()
		raw, ok = c.index[key]
	}
	c.mu.Unlock()
	if ok && v != nil && json.Unmarshal(raw, v) != nil {
		var zero T
		*v = zero
		c.corrupt.Inc()
		ok = false
	}
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return raw, true
}

// Put persists v under key (see Append). A failure is remembered (see
// Err) but does not stop the campaign — a result that fails to persist
// is recomputed on resume, never lost silently mid-run.
func (c *DiskCache[T]) Put(key string, v T) { c.Append(key, v) }

// Append writes v's record to the log and indexes it, replacing any
// previous value of key. It returns the write's own error, which is
// also remembered for Err; on failure key keeps its previous value.
func (c *DiskCache[T]) Append(key string, v T) error {
	if c == nil {
		return nil
	}
	c.puts.Inc()
	val, err := json.Marshal(v)
	if err != nil {
		c.setErr(err)
		return err
	}
	k, _ := json.Marshal(key) // a string always marshals
	rec := make([]byte, 0, len(k)+len(val)+12)
	rec = append(rec, "\n{\"k\":"...)
	rec = append(append(rec, k...), ",\"v\":"...)
	rec = append(append(rec, val...), '}')
	// Writing under the lock keeps the index in the log's order.
	c.mu.Lock()
	f, err := os.OpenFile(filepath.Join(c.dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err == nil {
		_, err = f.Write(rec)
		// The record ends at the file offset. If it starts where the
		// last read ended, everything before it is indexed already.
		if end, serr := f.Seek(0, io.SeekCurrent); err == nil && serr == nil && end-int64(len(rec)) == c.read {
			c.read = end
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		c.index[key] = val
	}
	c.mu.Unlock()
	if err != nil {
		c.setErr(err)
	}
	return err
}

// catchUp indexes the records appended to the log since the last read;
// c.mu must be held. A final line that is not a record may still be
// being written, so it is left to be read again; any other line that
// is not a record counts as corrupt and is skipped. Read errors leave
// the index as it was, so lookups degrade to misses.
func (c *DiskCache[T]) catchUp() error {
	path := filepath.Join(c.dir, logName)
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil || st.Size() == c.read {
		return err
	}
	if st.Size() < c.read { // the log was cut short: index it afresh
		c.read = 0
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, st.Size()-c.read)
	n, err := f.ReadAt(buf, c.read)
	if err != nil && err != io.EOF {
		return err
	}
	buf = buf[:n]
	for len(buf) > 0 {
		line, rest, whole := bytes.Cut(buf, []byte{'\n'})
		key, val, ok := parseRecord(line)
		if !whole && !ok {
			break
		}
		if ok {
			c.index[key] = val
		} else if len(line) > 0 {
			c.corrupt.Inc()
		}
		c.read += int64(len(buf) - len(rest))
		buf = rest
	}
	return nil
}

// parseRecord decodes one log line into its key and value.
func parseRecord(line []byte) (string, json.RawMessage, bool) {
	var r struct {
		K *string         `json:"k"`
		V json.RawMessage `json:"v"`
	}
	if json.Unmarshal(line, &r) != nil || r.K == nil || r.V == nil {
		return "", nil, false
	}
	return *r.K, r.V, true
}

// Err reports the first persistence failure, if any. Lookups never
// error (they degrade to misses); this surfaces write problems — a
// full or read-only disk — that would otherwise silently disable
// resumability.
func (c *DiskCache[T]) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Manifest returns the key of every well-formed record in the log,
// sorted — the campaign-audit view of a cache directory. A record
// whose value does not decode as T is listed yet still degrades to a
// miss on Get; the manifest answers "what has been persisted", not
// "what is guaranteed well-formed".
func (c *DiskCache[T]) Manifest() ([]string, error) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	err := c.catchUp()
	keys := make([]string, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats reports lookup hits and misses since creation.
func (c *DiskCache[T]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Value(), c.misses.Value()
}

// Corrupt reports how many damaged records the cache met: log lines
// that are not records, each counted when read, and lookups whose
// record did not decode as T (each also counted as a miss).
func (c *DiskCache[T]) Corrupt() int64 {
	if c == nil {
		return 0
	}
	return c.corrupt.Value()
}

// Puts reports how many values have been stored (attempted) since
// creation.
func (c *DiskCache[T]) Puts() int64 {
	if c == nil {
		return 0
	}
	return c.puts.Value()
}

// Instrument publishes the cache's counters into r under
// "<name>.hits", "<name>.misses", "<name>.puts", "<name>.corrupt" and
// "<name>.write_errors" — the same atomics Stats, Corrupt and Puts
// read. Nil receiver or registry is a no-op.
func (c *DiskCache[T]) Instrument(r *obs.Registry, name string) {
	if c == nil {
		return
	}
	r.RegisterCounter(name+".hits", &c.hits)
	r.RegisterCounter(name+".misses", &c.misses)
	r.RegisterCounter(name+".puts", &c.puts)
	r.RegisterCounter(name+".corrupt", &c.corrupt)
	r.RegisterCounter(name+".write_errors", &c.writeErrs)
}

func (c *DiskCache[T]) setErr(err error) {
	c.writeErrs.Inc()
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
