package runner

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func indexJobs(n int, delay func(i int) time.Duration) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job-%d", i),
			Run: func() (int, error) {
				if delay != nil {
					time.Sleep(delay(i))
				}
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestPoolOrderedResults(t *testing.T) {
	// Later jobs finish first (decreasing sleeps), yet collection is in
	// job order at every worker count.
	delay := func(i int) time.Duration { return time.Duration(8-i) * time.Millisecond }
	for _, workers := range []int{1, 3, 8} {
		p := &Pool[int]{Workers: workers}
		got, err := p.Run(indexJobs(8, delay))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestPoolFirstErrorWins(t *testing.T) {
	// Two failing jobs: the reported error must be the lowest-indexed
	// one — what serial execution would have stopped on.
	boom2 := errors.New("boom-2")
	jobs := indexJobs(8, nil)
	jobs[2].Run = func() (int, error) { return 0, boom2 }
	jobs[5].Run = func() (int, error) { return 0, errors.New("boom-5") }
	for _, workers := range []int{1, 4} {
		p := &Pool[int]{Workers: workers}
		got, err := p.Run(jobs)
		if !errors.Is(err, boom2) {
			t.Fatalf("workers=%d: err = %v, want boom-2", workers, err)
		}
		if got != nil {
			t.Fatalf("workers=%d: results must be nil on error", workers)
		}
	}
}

func TestPoolOnResultOrderedPrefix(t *testing.T) {
	// OnResult sees exactly the jobs before the first failure, in order.
	jobs := indexJobs(8, func(i int) time.Duration { return time.Duration(8-i) * time.Millisecond })
	jobs[5].Run = func() (int, error) { return 0, errors.New("boom") }
	var emitted []int
	p := &Pool[int]{
		Workers: 4,
		OnResult: func(i int, v int, _ bool) error {
			emitted = append(emitted, i)
			return nil
		},
	}
	if _, err := p.Run(jobs); err == nil {
		t.Fatal("expected error")
	}
	want := []int{0, 1, 2, 3, 4}
	if len(emitted) != len(want) {
		t.Fatalf("emitted %v, want %v", emitted, want)
	}
	for i := range want {
		if emitted[i] != want[i] {
			t.Fatalf("emitted %v, want %v", emitted, want)
		}
	}
}

func TestPoolOnResultErrorAborts(t *testing.T) {
	sinkErr := errors.New("disk full")
	p := &Pool[int]{
		Workers:  2,
		OnResult: func(i int, v int, _ bool) error { return sinkErr },
	}
	if _, err := p.Run(indexJobs(4, nil)); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
}

func TestPoolProgress(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	p := &Pool[int]{
		Workers: 4,
		OnProgress: func(pr Progress) {
			mu.Lock()
			defer mu.Unlock()
			if pr.Total != 6 {
				t.Errorf("Total = %d, want 6", pr.Total)
			}
			dones = append(dones, pr.Done)
		},
	}
	if _, err := p.Run(indexJobs(6, nil)); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 6 {
		t.Fatalf("got %d progress callbacks, want 6", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done sequence %v must count 1..6", dones)
		}
	}
}

func TestPoolCacheAndSingleflight(t *testing.T) {
	// Eight jobs share one content key: with a cache attached, the
	// computation runs exactly once (singleflight collapses the batch)
	// and every job gets the same result. A keyless job in the same
	// batch is neither cached nor deduplicated: it runs every time.
	var runs, keyless atomic.Int64
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{
			Label: "shared",
			Key:   "same-key",
			Run: func() (int, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 7, nil
			},
		}
	}
	jobs = append(jobs, Job[int]{Label: "keyless", Run: func() (int, error) {
		keyless.Add(1)
		return 3, nil
	}})
	cache := NewMemoryCache[int]()
	p := &Pool[int]{Workers: 8, Cache: cache}
	got, err := p.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("shared job ran %d times, want 1", n)
	}
	for i, v := range got[:8] {
		if v != 7 {
			t.Fatalf("result[%d] = %d, want 7", i, v)
		}
	}
	if got[8] != 3 {
		t.Fatalf("keyless result = %d, want 3", got[8])
	}
	// A second batch is served entirely from the cache, except the
	// keyless job.
	runs.Store(0)
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("cached batch recomputed %d times", n)
	}
	if n := keyless.Load(); n != 2 {
		t.Fatalf("keyless job ran %d times in two batches, want 2", n)
	}
	if hits, _ := cache.Stats(); hits < 8 {
		t.Fatalf("cache hits = %d, want ≥8", hits)
	}
}

// TestPoolOneLookupPerJob: a keyed job looks its key up once and a
// distinct key is stored once, so N jobs over K keys into an empty
// cache make exactly N Gets and K Puts at any worker count. A second
// lookup before computing a miss would make N+K.
func TestPoolOneLookupPerJob(t *testing.T) {
	const n, k = 24, 5
	jobs := make([]Job[int], n)
	for i := range jobs {
		key := i % k
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job-%d", i),
			Key:   fmt.Sprintf("key-%d", key),
			Run: func() (int, error) {
				time.Sleep(time.Millisecond)
				return key, nil
			},
		}
	}
	for _, workers := range []int{1, 4} {
		cache := NewMemoryCache[int]()
		got, err := (&Pool[int]{Workers: workers, Cache: cache}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i%k {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i%k)
			}
		}
		hits, misses := cache.Stats()
		if gets := hits + misses; gets != n {
			t.Fatalf("workers=%d: %d cache Gets, want one per job (%d)", workers, gets, n)
		}
		if puts := cache.Puts(); puts != k {
			t.Fatalf("workers=%d: %d cache Puts, want one per distinct key (%d)", workers, puts, k)
		}
	}
}

// batchCache is a MemoryCache that also answers batches, recording
// the keys of each batch it is asked.
type batchCache struct {
	*MemoryCache[int]
	mu      sync.Mutex
	batches [][]string
}

func (c *batchCache) GetMany(keys []string) ([]int, []bool) {
	c.mu.Lock()
	c.batches = append(c.batches, append([]string(nil), keys...))
	c.mu.Unlock()
	return getMany[int](c.MemoryCache, keys)
}

// TestPoolBatchLookup: with a cache that answers batches, the pool
// looks every keyed job up in one call, in job order, before any job
// runs, and no job looks its key up again. Cached jobs do not run,
// duplicates of a missing key run once, and each distinct missing key
// is stored once, at any worker count.
func TestPoolBatchLookup(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cache := &batchCache{MemoryCache: NewMemoryCache[int]()}
		cache.Put("held", 5)
		var runs atomic.Int64
		job := func(key string, v int) Job[int] {
			return Job[int]{Label: key, Key: key, Run: func() (int, error) {
				runs.Add(1)
				return v, nil
			}}
		}
		jobs := []Job[int]{
			job("held", -1), job("a", 1), {Label: "keyless", Run: func() (int, error) { return 9, nil }},
			job("b", 2), job("a", 1), job("held", -1),
		}
		var hitIdx []int
		var mu sync.Mutex
		p := &Pool[int]{Workers: workers, Cache: cache, OnProgress: func(pr Progress) {
			mu.Lock()
			defer mu.Unlock()
			if pr.CacheHit {
				hitIdx = append(hitIdx, pr.Index)
			}
		}}
		got, err := p.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{5, 1, 9, 2, 1, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: results %v, want %v", workers, got, want)
		}
		if want := "[[held a b a held]]"; fmt.Sprint(cache.batches) != want {
			t.Fatalf("workers=%d: batches %v, want %s", workers, cache.batches, want)
		}
		if hits, misses := cache.Stats(); hits != 2 || misses != 3 {
			t.Fatalf("workers=%d: %d hits/%d misses, want one lookup per keyed job: 2/3", workers, hits, misses)
		}
		if n, puts := runs.Load(), cache.Puts(); n != 2 || puts != 1+2 {
			t.Fatalf("workers=%d: %d runs and %d puts, want 2 and 1+2", workers, n, puts)
		}
		// Either duplicate of "a" may lead; the other reports a hit.
		sort.Ints(hitIdx)
		if h := fmt.Sprint(hitIdx); h != "[0 1 5]" && h != "[0 4 5]" {
			t.Fatalf("workers=%d: cache hits reported at %v, want jobs 0, 5 and one of 1 and 4", workers, hitIdx)
		}
	}
}

func TestPoolConcurrencySpeedup(t *testing.T) {
	// The acceptance bar for the subsystem: ≥4 workers must cut a
	// sweep's wall clock by ≥2× versus serial. Sleep-bound jobs make
	// this hold even on single-core machines (the CPU-bound analogue is
	// TestLayerGridParallelSpeedup in internal/core, which needs real
	// cores).
	const n, d = 8, 30 * time.Millisecond
	delay := func(int) time.Duration { return d }

	start := time.Now()
	if _, err := (&Pool[int]{Workers: 1}).Run(indexJobs(n, delay)); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)

	start = time.Now()
	if _, err := (&Pool[int]{Workers: 4}).Run(indexJobs(n, delay)); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)

	if parallel > serial/2 {
		t.Fatalf("4 workers took %v, serial %v — want ≥2× speedup", parallel, serial)
	}
}

func TestPoolZeroJobsAndDefaults(t *testing.T) {
	p := &Pool[string]{}
	got, err := p.Run(nil)
	if err != nil || got != nil {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
	// Workers ≤ 0 falls back to GOMAXPROCS and still works.
	p = &Pool[string]{Workers: -3}
	res, err := p.Run([]Job[string]{{Run: func() (string, error) { return "ok", nil }}})
	if err != nil || len(res) != 1 || res[0] != "ok" {
		t.Fatalf("got %v, %v", res, err)
	}
}

func TestMemoryCacheNilSafe(t *testing.T) {
	var c *MemoryCache[int]
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache must never hit")
	}
	c.Put("k", 1) // must not panic
	if c.Len() != 0 {
		t.Fatal("nil cache must be empty")
	}
	var zero MemoryCache[int]
	zero.Put("k", 5)
	if v, ok := zero.Get("k"); !ok || v != 5 {
		t.Fatal("zero-value cache must store values")
	}
}

func TestKeyOf(t *testing.T) {
	type spec struct {
		A float64
		B string
	}
	k1 := KeyOf(spec{1.5, "x"}, int64(42))
	k2 := KeyOf(spec{1.5, "x"}, int64(42))
	k3 := KeyOf(spec{1.5, "y"}, int64(42))
	k4 := KeyOf(spec{1.5, "x"}, int64(43))
	if k1 != k2 {
		t.Fatal("equal specs must hash equal")
	}
	if k1 == k3 || k1 == k4 {
		t.Fatal("differing specs must hash differently")
	}
	// Pointers hash by pointee, not by address.
	p1, p2 := &spec{2, "z"}, &spec{2, "z"}
	if KeyOf(p1) != KeyOf(p2) {
		t.Fatal("pointer specs must hash by content")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	s1 := DeriveSeed(42, "attack-3", -20.0, 50.0)
	s2 := DeriveSeed(42, "attack-3", -20.0, 50.0)
	s3 := DeriveSeed(42, "attack-3", -20.0, 75.0)
	s4 := DeriveSeed(43, "attack-3", -20.0, 50.0)
	if s1 != s2 {
		t.Fatal("derivation must be deterministic")
	}
	if s1 == s3 || s1 == s4 {
		t.Fatal("different coordinates or bases must derive different seeds")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	recs := []Record{
		{{"sweep", "grid"}, {"scale_pc", -20.0}, {"accuracy", 0.75}},
		{{"sweep", "grid"}, {"scale_pc", 20.0}, {"accuracy", 0.5}},
	}
	for _, r := range recs {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"sweep":"grid","scale_pc":-20,"accuracy":0.75}
{"sweep":"grid","scale_pc":20,"accuracy":0.5}
`
	if buf.String() != want {
		t.Fatalf("jsonl output:\n%s\nwant:\n%s", buf.String(), want)
	}
}
