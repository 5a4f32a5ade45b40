// Package runner executes fault-injection campaigns on a worker pool.
//
// A campaign (internal/core's sweeps over attack configurations) is a
// list of independent jobs: each job is built from an attack plan, the
// experiment configuration, and a deterministically derived seed, so a
// job's result depends only on its specification — never on wall-clock
// time, scheduling, or which worker happens to run it. The pool
// exploits that independence three ways:
//
//   - Parallelism. Jobs run on Workers goroutines (GOMAXPROCS by
//     default) while results are collected in job order, so output is
//     byte-identical to serial execution regardless of worker count.
//   - Caching. Jobs carry a content-address (see KeyOf) over their full
//     specification; a Cache returns previously computed results and an
//     in-flight singleflight collapses duplicate jobs within a batch,
//     so shared work (e.g. a campaign's attack-free baseline) is
//     computed exactly once.
//   - Streaming. OnResult observes the completed contiguous prefix in
//     job order (feeding the JSONL sink, see sink.go) and OnProgress
//     observes every completion as it happens.
//
// Error semantics match serial execution: the error returned is the one
// the lowest-indexed failing job produced, and OnResult never sees a
// result at or beyond the first failing index.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snnfi/internal/obs"
)

// Job is one unit of campaign work.
type Job[T any] struct {
	// Label names the job in progress reports and error messages.
	Label string
	// Key is the content-address of the job's specification: a hash of
	// everything the result depends on (experiment config, attack plan,
	// seeds — see KeyOf). Jobs with equal keys must compute equal
	// results. An empty key disables caching and deduplication.
	Key string
	// Run computes the result. It must be safe to call concurrently
	// with other jobs' Run functions.
	Run func() (T, error)
}

// Progress reports one completed job. Callbacks are serialized but may
// arrive in any job order; Done is the number of jobs finished so far.
type Progress struct {
	Done  int
	Total int
	// Index is the completed job's position in the batch (the order
	// results are collected in), as opposed to Done's completion count.
	Index int
	Label string
	// CacheHit is true when the job's result was not computed by its
	// own Run call: it was served by the cache or by another job with
	// the same key (in-flight or already finished in this batch). The
	// accounting is deterministic — for K duplicate keys in a batch,
	// exactly one job computes and K−1 report CacheHit — regardless of
	// scheduling and of whether a Cache is attached.
	CacheHit bool
	// Elapsed is the time since the batch started, so observers can
	// derive rates and ETAs without their own clock.
	Elapsed time.Duration
}

// Pool runs batches of jobs on a fixed number of workers.
type Pool[T any] struct {
	// Workers is the pool width; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes results by Job.Key. Every keyed
	// job of a batch is looked up before any job is dispatched: in one
	// GetMany call when the cache has one (Chain, HTTPCache), else key
	// by key.
	Cache Cache[T]
	// OnProgress, when non-nil, observes every job completion.
	OnProgress func(Progress)
	// OnResult, when non-nil, observes results strictly in job order
	// (the completed contiguous prefix, ending before the first failed
	// job). Returning an error aborts the batch.
	OnResult func(index int, v T, cacheHit bool) error
	// Obs, when non-nil, receives the pool's telemetry: per-job queue
	// and run duration histograms ("<name>.wait", "<name>.run"), job
	// and cache-hit counters ("<name>.jobs", "<name>.hits"), and
	// per-batch worker-count and utilization gauges ("<name>.workers",
	// "<name>.utilization", busy time over workers × wall). Telemetry
	// never affects results (it observes completions the pool already
	// serializes); a nil registry costs nothing.
	Obs *obs.Registry
	// Name prefixes the pool's metric names in Obs; empty means "pool".
	// Subsystems that own a pool set it so their phases stay separate
	// ("core.cells", "snn.eval", "neuron.sweep").
	Name string
}

// flight tracks one computation of a cache key within a batch so
// duplicate jobs wait for the leader instead of recomputing. Entries
// are retained for the whole batch (never deleted), which makes
// duplicate-key accounting deterministic even without a Cache: a
// duplicate dispatched after its leader finished still finds the
// flight and reports a hit, instead of silently recomputing.
type flight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// Run executes the jobs and returns their results in job order. On
// failure it returns a nil slice and the first failing job's error —
// the same error serial execution would have stopped on, because the
// dispatcher hands out indices in order and stops at the first failure,
// so every job below the reported index has run to completion.
func (p *Pool[T]) Run(jobs []Job[T]) ([]T, error) {
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	hits := make([]bool, n)
	done := make([]bool, n)

	var (
		mu       sync.Mutex // guards results/errs/hits/done and emission state
		nextEmit int
		emitErr  error
		finished int
	)
	flights := make(map[string]*flight[T])
	var flightMu sync.Mutex

	// Pool telemetry: instruments are resolved once per batch, and
	// every per-job method below is nil-safe, so a pool without a
	// registry pays only the time.Now calls Progress.Elapsed needs
	// anyway. The batch starts before its lookup, which the pool's
	// wait and wall times then include.
	batchStart := time.Now()
	cached, found := p.lookUp(jobs)

	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-stop:
				return
			}
		}
	}()

	var busyNs atomic.Int64
	name := p.Name
	if name == "" {
		name = "pool"
	}
	var (
		waitHist = p.Obs.Histogram(name + ".wait")
		runHist  = p.Obs.Histogram(name + ".run")
		jobsCnt  = p.Obs.Counter(name + ".jobs")
		hitsCnt  = p.Obs.Counter(name + ".hits")
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jobStart := time.Now()
				waitHist.Observe(jobStart.Sub(batchStart))
				v, hit, err := p.runOne(jobs[i], cached[i], found[i], flights, &flightMu)
				jobDur := time.Since(jobStart)
				busyNs.Add(int64(jobDur))
				runHist.Observe(jobDur)
				jobsCnt.Inc()
				if hit {
					hitsCnt.Inc()
				}

				mu.Lock()
				results[i], errs[i], hits[i], done[i] = v, err, hit, true
				finished++
				if err != nil {
					abort()
				}
				for nextEmit < n && done[nextEmit] && errs[nextEmit] == nil && emitErr == nil {
					if p.OnResult != nil {
						if e := p.OnResult(nextEmit, results[nextEmit], hits[nextEmit]); e != nil {
							emitErr = fmt.Errorf("runner: result sink at job %d (%s): %w",
								nextEmit, jobs[nextEmit].Label, e)
							abort()
							break
						}
					}
					nextEmit++
				}
				if p.OnProgress != nil {
					p.OnProgress(Progress{
						Done: finished, Total: n, Index: i,
						Label: jobs[i].Label, CacheHit: hit,
						Elapsed: time.Since(batchStart),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if p.Obs != nil {
		wall := time.Since(batchStart)
		p.Obs.Gauge(name + ".workers").Set(float64(workers))
		if wall > 0 {
			p.Obs.Gauge(name + ".utilization").Set(
				float64(busyNs.Load()) / (float64(workers) * float64(wall)))
		}
	}

	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if emitErr != nil {
		return nil, emitErr
	}
	return results, nil
}

// lookUp looks every keyed job of the batch up, in job order, before
// any is dispatched: in one GetMany call when the cache answers
// batches, so a chain over the store pays one round trip per batch
// instead of one per job, else key by key. Unkeyed jobs read as
// misses. Looking up ahead widens the window in which another process
// may store a cell this batch then computes again: one duplicate
// compute of a pure cell, never wrong bytes.
func (p *Pool[T]) lookUp(jobs []Job[T]) (cached []T, found []bool) {
	cached, found = make([]T, len(jobs)), make([]bool, len(jobs))
	if p.Cache == nil {
		return cached, found
	}
	var keys []string
	var at []int // job index of each key
	for i, j := range jobs {
		if j.Key != "" {
			keys = append(keys, j.Key)
			at = append(at, i)
		}
	}
	if len(keys) == 0 {
		return cached, found
	}
	vs, oks := getMany(p.Cache, keys)
	for k, i := range at {
		cached[i], found[i] = vs[k], oks[k]
	}
	return cached, found
}

// runOne executes a single job through the in-flight deduplication
// table, given its batch lookup's answer. A miss is not looked up
// again before the job leads its flight, and within a batch the
// flight table gives each key one leader.
func (p *Pool[T]) runOne(j Job[T], cached T, found bool, flights map[string]*flight[T], flightMu *sync.Mutex) (T, bool, error) {
	if j.Key == "" {
		v, err := j.Run()
		return v, false, err
	}
	if found {
		return cached, true, nil
	}
	flightMu.Lock()
	if f, ok := flights[j.Key]; ok {
		flightMu.Unlock()
		<-f.done
		if f.err != nil {
			var zero T
			return zero, false, f.err
		}
		return f.v, true, nil
	}
	f := &flight[T]{done: make(chan struct{})}
	flights[j.Key] = f
	flightMu.Unlock()

	f.v, f.err = j.Run()
	if f.err == nil && p.Cache != nil {
		p.Cache.Put(j.Key, f.v)
	}
	close(f.done)
	return f.v, false, f.err
}
