package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"snnfi/internal/core"
	"snnfi/internal/fabric"
	"snnfi/internal/mnist"
	"snnfi/internal/neuron"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/spice"
	"snnfi/internal/suite"
)

const (
	// defaultSeed is the synthetic-corpus seed the goldens were
	// captured with (core.NewExperiment's own corpus seed).
	defaultSeed = 7
	// workers is the pool width of every pass: the CPU count of the
	// machine the benchmark was calibrated on, fixed so that figures
	// compare across machines with more CPUs.
	workers = 2
)

// workload is one set of benchmark inputs. NOTES.md gives the reason
// for each.
type workload struct {
	name string
	// entries are the suite entry IDs a pass runs, in suite order; nil
	// runs every entry.
	entries []string
	// images, neurons and steps set the network scale (suite.Runner's
	// overrides).
	images, neurons, steps int
	// warm passes read a store that set-up filled with a cold pass;
	// cold passes write into an empty one.
	warm bool
	// pinned holds the sha256 of each artifact at the default seed
	// where no golden exists at the workload's scale; nil means the
	// artifacts are the goldens of cmd/figures.
	pinned map[string]string
}

var workloads = []workload{
	{name: "paper-cold", images: 60, neurons: 32, steps: 100},
	{
		name:    "network-cold",
		entries: []string{"F7b", "F8a", "F8b", "F8c", "F9a", "D2", "D3", "D4", "D5", "E1", "E2"},
		images:  100, neurons: 100, steps: 250,
		pinned: networkDigests,
	},
	{name: "paper-warm", images: 60, neurons: 32, steps: 100, warm: true},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// bench is one benchmark run: its inputs, its store and its tally of
// attempted and failed operations.
type bench struct {
	root   string
	wl     workload
	seed   int64
	log    io.Writer
	tmp    string // per-run scratch under the root; removed by close
	suite  *suite.Suite
	ids    []string
	byID   map[string]*suite.Entry
	corpus []mnist.Image
	store  *store
	refs   *refs

	passes            int
	attempted, failed int64
}

// newBench checks that root is a checkout the benchmark can run in and
// creates the run's scratch directory. Set-up proper (suite, corpus,
// store) is timed separately, by setup.
func newBench(root string, wl workload, seed int64, log io.Writer) (*bench, error) {
	refs, err := loadRefs(root, wl, seed)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, wl.name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{root: root, wl: wl, seed: seed, log: log, tmp: tmp, refs: refs}, nil
}

// close stops the store and removes every temporary file. It runs on
// every path out of a run, after a failed check as well.
func (b *bench) close() error {
	b.store.close()
	b.store = nil
	return os.RemoveAll(b.tmp)
}

// fail records n failed operations with the reason.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed += n
	fmt.Fprintf(b.log, "campaignbench: FAILED: "+format+"\n", args...)
}

// setup loads and validates the suite, builds the corpus from the
// seed and starts the store; on a warm workload it also fills the store
// with one cold pass. It returns the time all of that took. A previous
// set-up's store is stopped first, outside the timed region.
func (b *bench) setup() (time.Duration, error) {
	b.store.close()
	b.store = nil
	runtime.GC()
	start := time.Now()
	su, err := suite.Load(filepath.Join(b.root, "suites", "paper.json"))
	if err != nil {
		return 0, err
	}
	if err := su.Validate(); err != nil {
		return 0, err
	}
	byID := make(map[string]*suite.Entry, len(su.Entries))
	for i := range su.Entries {
		byID[su.Entries[i].ID] = &su.Entries[i]
	}
	ids := b.wl.entries
	if ids == nil {
		for _, e := range su.Entries {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		if byID[id] == nil {
			return 0, fmt.Errorf("suite has no entry %q", id)
		}
	}
	b.suite, b.ids, b.byID = su, ids, byID
	b.corpus = mnist.Synthetic(b.wl.images, b.seed)
	st, err := startStore(b.tmp)
	if err != nil {
		return 0, err
	}
	b.store = st
	fmt.Fprintf(b.log, "campaignbench: store listening at %s\n", st.url)
	if b.wl.warm {
		if _, err := b.pass(nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// passStats is what one pass measured.
type passStats struct {
	wall, cpu time.Duration
	allocB    uint64
	trained   int64
	// entries holds each entry's wall time and solver activity, in
	// run order.
	entries []entryStats
	reg     *obs.Registry
}

type entryStats struct {
	id                      string
	wall                    time.Duration
	solves, iters, restamps int64
	pools                   map[string]poolUse
}

// pass runs the workload's entries once through a fresh suite.Runner:
// fresh memory tiers and experiment, the run's store behind them (a
// fresh empty one on cold workloads). Only the entry calls are timed.
// Every artifact is then checked and every failure counted; the
// returned error is reserved for the benchmark's own I/O failing.
// A non-nil tracer records spans around every layer call.
func (b *bench) pass(tr *tracer) (passStats, error) {
	var ps passStats
	dir, err := os.MkdirTemp(b.tmp, "pass-")
	if err != nil {
		return ps, err
	}
	defer os.RemoveAll(dir)
	for _, id := range b.ids {
		if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
			return ps, err
		}
	}
	warm := b.wl.warm && b.store.fab != nil
	if !warm {
		if err := b.store.reset(); err != nil {
			return ps, err
		}
	}
	b.store.serve(tr)

	reg := obs.NewRegistry()
	ps.reg = reg
	char := neuron.NewCharacterizer()
	char.Workers = workers
	char.Obs = reg
	circuitHTTP := runner.NewHTTPCache[float64](b.store.url, "circuit")
	circuitHTTP.Instrument(reg, "cache.http.circuit")
	char.Cache = chain(tr, "circuit", char.Cache, circuitHTTP)
	r := &suite.Runner{
		Suite:   b.suite,
		Name:    "campaignbench",
		Stdout:  io.Discard,
		Images:  b.wl.images,
		Neurons: b.wl.neurons,
		Steps:   b.wl.steps,
		Workers: workers,
		Char:    char,
		Obs:     reg,
		// The hook runs before the baseline trains, so the experiment
		// fingerprint, and with it every cache key, covers the
		// seed's corpus.
		OnExperiment: func(e *core.Experiment) error {
			e.Images = b.corpus
			networkHTTP := runner.NewHTTPCache[*core.Result](b.store.url, "network")
			networkHTTP.Instrument(reg, "cache.http")
			e.Cache = chain(tr, "network", e.Cache, networkHTTP)
			return nil
		},
	}

	runtime.GC()
	root := tr.begin("pass", 0)
	start, cpu0, alloc0 := time.Now(), cpuTime(), allocated()
	sp := tr.enter("experiment", root.ID)
	exp, err := r.Experiment()
	tr.end(sp, "")
	b.attempted++
	if err != nil {
		b.fail(1, "experiment: %v", err)
	}
	for _, id := range b.ids {
		r.OutDir = filepath.Join(dir, id)
		s0, i0, r0 := spice.SolverCounts()
		p0 := poolTotals(reg)
		t0 := time.Now()
		sp := tr.enter("entry:"+id, root.ID)
		err := r.Run([]string{id})
		tr.end(sp, "")
		es := entryStats{id: id, wall: time.Since(t0)}
		s1, i1, r1 := spice.SolverCounts()
		es.solves, es.iters, es.restamps = s1-s0, i1-i0, r1-r0
		es.pools = poolTotals(reg)
		for p, u := range es.pools {
			u.jobs -= p0[p].jobs
			u.busy -= p0[p].busy
			u.util = reg.Gauge(p + ".utilization").Value()
			es.pools[p] = u
		}
		ps.entries = append(ps.entries, es)
		b.attempted++
		if err != nil {
			b.fail(1, "entry %s: %v", id, err)
		}
	}
	ps.wall, ps.cpu, ps.allocB = time.Since(start), cpuTime()-cpu0, allocated()-alloc0
	tr.end(root, "")

	if exp != nil {
		ps.trained = exp.TrainCount()
	}
	if warm {
		// A warm pass must be served by the store alone.
		b.attempted++
		if ps.trained != 0 {
			b.fail(1, "warm pass trained %d networks, want 0", ps.trained)
		}
	}
	requests, errs := storeOps(reg)
	b.attempted += requests
	if errs > 0 {
		b.fail(errs, "%d store requests ran out of retries or got a bad answer", errs)
	}
	return ps, b.checkArtifacts(dir)
}

// httpLevels are the registry prefixes of the two HTTP cache levels
// (the names cli.Tiers gives them).
var httpLevels = []string{"cache.http", "cache.http.circuit"}

// storeOps sums the store operations of both tiers as the HTTP
// clients counted them: lookups and writes, and those that finally
// failed.
func storeOps(reg *obs.Registry) (requests, errors int64) {
	for _, p := range httpLevels {
		for _, c := range []string{".hits", ".misses", ".puts"} {
			requests += reg.Counter(p + c).Value()
		}
		errors += reg.Counter(p + ".errors").Value()
	}
	return requests, errors
}

// checkArtifacts compares every CSV the pass wrote (one subdirectory
// per entry) with its reference and counts each artifact as one
// operation.
func (b *bench) checkArtifacts(dir string) error {
	got := map[string]artifact{}
	for _, id := range b.ids {
		files, err := os.ReadDir(filepath.Join(dir, id))
		if err != nil {
			return err
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, id, f.Name()))
			if err != nil {
				return err
			}
			got[f.Name()] = artifact{entry: b.byID[id], data: data}
		}
	}
	attempted, problems := b.refs.check(got)
	b.attempted += attempted
	if len(problems) > 0 {
		sort.Strings(problems)
		b.fail(int64(len(problems)), "artifacts:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far. The store
// runs in this process, so its CPU is part of a pass's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// chain composes one tier's cache chain as cli.Tiers does for `-store`
// without `-cache-dir` (memory → HTTP store), with each level wrapped in
// a span recorder when traced.
func chain[T any](tr *tracer, tier string, mem runner.Cache[T], store *runner.HTTPCache[T]) runner.Cache[T] {
	return runner.NewChain[T](traced(tr, "cache."+tier+".mem", "", mem), traced[T](tr, "cache."+tier+".http", tier, store))
}

// store is the benchmark's content store: fabric.Server over a
// per-tier DiskCache, served from this process on a loopback listener.
// The listener lives for the whole set-up; reset swaps in a server
// over a fresh, empty directory.
type store struct {
	srv     *httptest.Server
	url     string
	dir     string
	gen     int
	fab     *fabric.Server
	handler atomic.Pointer[http.Handler]
}

func startStore(tmp string) (*store, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	s := &store{dir: dir}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := s.handler.Load()
		if h == nil {
			http.Error(w, "store not ready", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	}))
	s.url = s.srv.URL
	return s, nil
}

// reset replaces the served store with an empty one and deletes the
// previous store's files.
func (s *store) reset() error {
	old := s.fab
	s.gen++
	fab, err := fabric.NewServer(filepath.Join(s.dir, fmt.Sprint(s.gen)), obs.NewRegistry())
	if err != nil {
		return err
	}
	s.fab = fab
	s.serve(nil)
	if old != nil {
		return os.RemoveAll(old.Dir())
	}
	return nil
}

// serve routes requests to the current store, through a span recorder
// when tr is non-nil.
func (s *store) serve(tr *tracer) {
	var h http.Handler = s.fab.Handler()
	if tr != nil {
		h = tracedHandler{tr: tr, next: h}
	}
	s.handler.Store(&h)
}

// close stops the listener, waiting for in-flight requests. The
// store's files go with the run's scratch directory. Closing a nil
// store is a no-op.
func (s *store) close() {
	if s != nil {
		s.srv.Close()
	}
}
