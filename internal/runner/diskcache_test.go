package runner

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// cachedResult mimics a campaign result: nested pointer, floats that
// must round-trip exactly.
type cachedResult struct {
	Name  string
	Acc   float64
	Inner *cachedResult
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &cachedResult{Name: "attack", Acc: 0.1 + 0.2, Inner: &cachedResult{Name: "base", Acc: 1.0 / 3.0}}
	key := KeyOf("round-trip")
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(key, want)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("warm cache must hit")
	}
	if got.Name != want.Name || got.Acc != want.Acc || got.Inner.Acc != want.Inner.Acc {
		t.Fatalf("round trip mutated the value: %+v vs %+v", got, want)
	}

	// A second cache over the same directory is a fresh process: the
	// entry must still be there, bit-exact floats included.
	c2, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := c2.Get(key)
	if !ok {
		t.Fatal("cold-process open must hit the persisted entry")
	}
	if got2.Acc != want.Acc || got2.Inner.Acc != want.Inner.Acc {
		t.Fatalf("cross-process float drift: %v vs %v", got2, want)
	}
	hits, misses := c2.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 1 hit 0 misses", hits, misses)
	}
}

// TestDiskCacheRawMatchesGet: Raw serves the bytes Get decodes into a
// json.RawMessage, for records read from the log and records put, and
// counts each lookup as the same hit or miss.
func TestDiskCacheRawMatchesGet(t *testing.T) {
	dir := t.TempDir()
	log := "\n{\"k\":\"a\",\"v\": {\"x\": [1, 2.50]} }\n{\"k\":\"b\",\"v\":\"s\"}\n"
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewDiskCache[json.RawMessage](dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("c", json.RawMessage(` { "y" : null } `))
	for _, k := range []string{"a", "b", "c", "absent"} {
		got, gok := c.Get(k)
		raw, rok := c.Raw(k)
		if gok != rok || !bytes.Equal(got, raw) {
			t.Fatalf("key %q: Get = %s, %v; Raw = %s, %v", k, got, gok, raw, rok)
		}
	}
	if hits, misses := c.Stats(); hits != 6 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 6 hits 2 misses", hits, misses)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("corrupt")
	c.Put(key, &cachedResult{Name: "x"})
	// Cut the record mid-JSON, as a crash mid-write would, and open the
	// directory afresh, as the next process would.
	cutLog(t, dir, 5)
	c2, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupt entry must degrade to a miss, not a hit")
	}
}

// cutLog drops the last n bytes of the log in dir.
func cutLog(t *testing.T, dir string, n int) {
	t.Helper()
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantServed fails unless c serves exactly the named results and
// misses every key in absent.
func wantServed(t *testing.T, c *DiskCache[*cachedResult], want map[string]*cachedResult, absent ...string) {
	t.Helper()
	for k, w := range want {
		got, ok := c.Get(k)
		if !ok || got.Name != w.Name || got.Acc != w.Acc {
			t.Fatalf("key %q = %+v, %v; want %+v", k, got, ok, w)
		}
	}
	for _, k := range absent {
		if v, ok := c.Get(k); ok {
			t.Fatalf("key %q = %+v, want a miss", k, v)
		}
	}
	keys, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("manifest = %v, want the %d served keys", keys, len(want))
	}
	for _, k := range keys {
		if want[k] == nil {
			t.Fatalf("manifest lists %q, which is not served", k)
		}
	}
}

// TestDiskCacheTornTail: a record cut short at the end of the log, as a
// crash mid-write leaves it, is a miss. While it ends the log it may
// still be being written, so it is not yet counted as corrupt; the next
// record starts on a line of its own, so it costs only itself.
func TestDiskCacheTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := &cachedResult{Name: "a", Acc: 0.1}, &cachedResult{Name: "b", Acc: 0.2}, &cachedResult{Name: "c", Acc: 0.3}
	c.Put("a", a)
	c.Put("b", b)
	cutLog(t, dir, 3)

	torn, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	wantServed(t, torn, map[string]*cachedResult{"a": a}, "b")
	if got := torn.Corrupt(); got != 0 {
		t.Fatalf("corrupt = %d, want 0 while the torn record ends the log", got)
	}
	torn.Put("c", cc)
	wantServed(t, torn, map[string]*cachedResult{"a": a, "c": cc}, "b")

	fresh, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	wantServed(t, fresh, map[string]*cachedResult{"a": a, "c": cc}, "b")
	if got := fresh.Corrupt(); got != 1 {
		t.Fatalf("corrupt = %d, want 1 (the torn record)", got)
	}
}

// TestDiskCacheCorruptRecordInMiddle: a damaged record between good
// ones costs only itself.
func TestDiskCacheCorruptRecordInMiddle(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*cachedResult{"a": {Name: "a", Acc: 0.1}, "c": {Name: "c", Acc: 0.3}}
	c.Put("a", want["a"])
	c.Put("b", &cachedResult{Name: "b", Acc: 0.2})
	c.Put("c", want["c"])
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`{"k":"b",`))
	if i < 0 {
		t.Fatalf("no record for b in %q", data)
	}
	data[i+len(`{"k":"b"`)] = '#'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	wantServed(t, fresh, want, "b")
	if got := fresh.Corrupt(); got != 1 {
		t.Fatalf("corrupt = %d, want 1", got)
	}
}

// TestDiskCacheSeesOtherWriters: two instances over one directory
// append in turn, as two processes would. Each serves the other's
// records, also those written between its own appends.
func TestDiskCacheSeesOtherWriters(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*cachedResult{}
	for i, c := range []*DiskCache[*cachedResult]{a, b, a, b} {
		k := fmt.Sprint("k", i)
		want[k] = &cachedResult{Name: k, Acc: float64(i)}
		c.Put(k, want[k])
	}
	wantServed(t, a, want)
	wantServed(t, b, want)
}

// TestDiskCacheUnsafeKey: any string is a key. Keys live inside the
// log, never in a path, so none can escape the cache directory.
func TestDiskCacheUnsafeKey(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string](dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "a/b", "UPPER", "", "dot.dot"} {
		c.Put(key, "v-"+key)
		if got, ok := c.Get(key); !ok || got != "v-"+key {
			t.Fatalf("key %q did not round-trip (got %q, %v)", key, got, ok)
		}
	}
	// Nothing may have been written outside the cache directory, and
	// a fresh instance reads every key back from the log.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); !os.IsNotExist(err) {
		t.Fatalf("unsafe key escaped the cache directory: %v", err)
	}
	fresh, err := NewDiskCache[string](dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "a/b", "UPPER", "", "dot.dot"} {
		if got, ok := fresh.Get(key); !ok || got != "v-"+key {
			t.Fatalf("key %q did not persist (got %q, %v)", key, got, ok)
		}
	}
}

// TestDiskCacheConcurrentPut exercises the append path under -race:
// concurrent writers to the same and different keys, with readers
// interleaved, must never observe a partial entry.
func TestDiskCacheConcurrentPut(t *testing.T) {
	c, err := NewDiskCache[*cachedResult](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				shared := KeyOf("shared", i)
				own := KeyOf("own", w, i)
				c.Put(shared, &cachedResult{Name: "shared", Acc: float64(i)})
				c.Put(own, &cachedResult{Name: fmt.Sprintf("w%d", w), Acc: float64(i)})
				if v, ok := c.Get(shared); ok && v.Name != "shared" {
					t.Errorf("partial entry observed: %+v", v)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < 20; i++ {
			if v, ok := c.Get(KeyOf("own", w, i)); !ok || v.Acc != float64(i) {
				t.Fatalf("writer %d entry %d lost (%v, %v)", w, i, v, ok)
			}
		}
	}
}

func TestTieredWriteThroughAndPromotion(t *testing.T) {
	fast := NewMemoryCache[string]()
	slow := NewMemoryCache[string]()
	c := NewChain[string](fast, slow)

	c.Put("k", "v")
	if _, ok := fast.Get("k"); !ok {
		t.Fatal("Put must write through to the fast tier")
	}
	if _, ok := slow.Get("k"); !ok {
		t.Fatal("Put must write through to the slow tier")
	}

	// A slow-only entry (written by another process) is served and
	// promoted.
	slow.Put("cold", "resume")
	if v, ok := c.Get("cold"); !ok || v != "resume" {
		t.Fatalf("slow-tier entry not served: %q %v", v, ok)
	}
	if v, ok := fast.Get("cold"); !ok || v != "resume" {
		t.Fatalf("slow-tier hit not promoted: %q %v", v, ok)
	}

	if _, ok := c.Get("absent"); ok {
		t.Fatal("miss in both tiers must miss")
	}
}

// TestDeriveSeedAddressFree: the canonical rendering makes seeds
// independent of where discriminators are allocated — two structurally
// equal pointer arguments derive the same seed in any process, which
// %#v (hex pointer addresses) did not guarantee.
func TestDeriveSeedAddressFree(t *testing.T) {
	type spec struct {
		Plan *cachedResult
		X    float64
	}
	a := spec{Plan: &cachedResult{Name: "p", Acc: 0.5}, X: 1}
	b := spec{Plan: &cachedResult{Name: "p", Acc: 0.5}, X: 1}
	if DeriveSeed(7, a) != DeriveSeed(7, b) {
		t.Fatal("structurally equal specs must derive equal seeds")
	}
	c := spec{Plan: &cachedResult{Name: "q", Acc: 0.5}, X: 1}
	if DeriveSeed(7, a) == DeriveSeed(7, c) {
		t.Fatal("distinct nested values must derive distinct seeds")
	}
}

func TestDiskCacheManifest(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := c.Manifest()
	if err != nil || len(keys) != 0 {
		t.Fatalf("empty cache manifest = %v, %v", keys, err)
	}
	kA, kB := KeyOf("cell-a"), KeyOf("cell-b")
	c.Put(kB, &cachedResult{Name: "b"})
	c.Put(kA, &cachedResult{Name: "a"})
	// Files beside the log are not entries: an entry file of the
	// one-file-per-key layout older builds wrote, a stray file, a
	// subdirectory.
	legacy := KeyOf("legacy")
	if err := os.WriteFile(filepath.Join(dir, legacy+".json"), []byte(`{"Name":"old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(legacy); ok {
		t.Fatal("an entry file of the old layout must miss")
	}
	keys, err = c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{kA, kB}
	sort.Strings(wantKeys)
	if len(keys) != 2 || keys[0] != wantKeys[0] || keys[1] != wantKeys[1] {
		t.Fatalf("manifest = %v, want sorted %v", keys, wantKeys)
	}
	// A nil cache (no -cache-dir) audits as empty, not as an error.
	var nilCache *DiskCache[*cachedResult]
	keys, err = nilCache.Manifest()
	if err != nil || keys != nil {
		t.Fatalf("nil cache manifest = %v, %v", keys, err)
	}
}

// TestMain lets TestDiskCacheTwoProcesses re-run this test binary as a
// writer process: `<test binary> -- append DIR WRITER`.
func TestMain(m *testing.M) {
	flag.Parse()
	if a := flag.Args(); len(a) == 3 && a[0] == "append" {
		os.Exit(appendWriter(a[1], a[2]))
	}
	os.Exit(m.Run())
}

// Each writer process appends appendRecords records of up to about
// 8 KB, so records span pages and would tear if appends interleaved.
const appendRecords = 200

func appendValue(writer string, i int) (string, *cachedResult) {
	return fmt.Sprintf("%s-%d", writer, i), &cachedResult{
		Name: writer + strings.Repeat("x", i*41%8000),
		Acc:  float64(i) / 3,
	}
}

// appendWriter is the writer process: it waits for DIR/start, so that
// both writers append at once, then appends its records.
func appendWriter(dir, writer string) int {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "start")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "writer", writer, "was never started")
			return 1
		}
	}
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for i := 0; i < appendRecords; i++ {
		if err := c.Append(appendValue(writer, i)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// TestDiskCacheTwoProcesses: two processes append to one log at once.
// An instance opened before they started sees every record on its next
// miss, a fresh instance reads every record exactly, and no record is
// damaged.
func TestDiskCacheTwoProcesses(t *testing.T) {
	dir := t.TempDir()
	watcher, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	writers := []string{"w0", "w1"}
	var cmds []*exec.Cmd
	for _, w := range writers {
		cmd := exec.Command(os.Args[0], "-test.run=^$", "--", "append", dir, w)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	if err := os.WriteFile(filepath.Join(dir, "start"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("writer process: %v", err)
		}
	}

	fresh, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*cachedResult{}
	for _, w := range writers {
		for i := 0; i < appendRecords; i++ {
			k, v := appendValue(w, i)
			want[k] = v
		}
	}
	for _, c := range []*DiskCache[*cachedResult]{watcher, fresh} {
		wantServed(t, c, want)
		if got := c.Corrupt(); got != 0 {
			t.Fatalf("corrupt = %d after two concurrent writers, want 0", got)
		}
	}
}

// FuzzDiskCacheLog opens a cache over arbitrary bytes as its log. Open,
// Get and Manifest must not panic, and every line that decodes as a
// record must be served with the value of the key's last record, both
// by an instance that reads the log at once and by one that read its
// first part before the rest was appended. The split falls before a
// newline, where every appended record begins.
func FuzzDiskCacheLog(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\",\"v\":[1,2]}",
		"\n{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\",\"v\":{\"x\"",
		"\n{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\"#\"v\":2}\n{\"k\":\"c\",\"v\":\"s\"}",
		"\n{\"k\":\"a\",\"v\":1}\n{\"k\":\"a\",\"v\":null}\n\n{\"k\":\"\\u00e9\",\"v\":{\"Acc\":0.30000000000000004}}\n",
		"{\"v\":1}\n{\"k\":2,\"v\":1}\n{\"k\":\"a\"}\n[]\nnull",
	} {
		f.Add([]byte(seed), uint(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		want := map[string]string{}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var r struct {
				K *string         `json:"k"`
				V json.RawMessage `json:"v"`
			}
			if json.Unmarshal(line, &r) == nil && r.K != nil && r.V != nil {
				want[*r.K] = string(r.V)
			}
		}
		at := len(data)
		if at > 0 {
			from := int(cut % uint(len(data)))
			if i := bytes.IndexByte(data[from:], '\n'); i >= 0 {
				at = from + i
			}
		}

		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		grown, err := NewDiskCache[json.RawMessage](dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grown.Manifest(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDiskCache[json.RawMessage](dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*DiskCache[json.RawMessage]{grown, fresh} {
			keys, err := c.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want) {
				t.Fatalf("manifest = %q, want the %d keys of %q", keys, len(want), data)
			}
			for _, k := range keys {
				got, ok := c.Get(k)
				if v, held := want[k]; !held || !ok || string(got) != v {
					t.Fatalf("key %q = %q, %v; want %q, %v", k, got, ok, v, held)
				}
			}
		}
	})
}
