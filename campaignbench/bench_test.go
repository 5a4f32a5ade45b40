package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyWorkload runs one analytic entry (D1, whose artifact is the same
// at every scale, so its golden applies) and one small network entry
// (F7b, which trains and writes through the store) at a toy scale.
// At a non-default seed F7b is checked against the run's first pass.
func tinyWorkload(t *testing.T, d1Digest string) workload {
	t.Helper()
	return workload{
		name:    "tiny",
		entries: []string{"D1", "F7b"},
		images:  10, neurons: 8, steps: 20,
		pinned: map[string]string{
			"d1_overheads.csv":        d1Digest,
			"fig7b_attack1_theta.csv": "checked against the first pass at seed 8",
		},
	}
}

func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "cmd", "figures", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs the command on the tiny workload and returns its result
// and standard error.
func runTiny(t *testing.T, wl workload, trace string) (result, string) {
	t.Helper()
	saved := workloads
	workloads = append(append([]workload(nil), workloads...), wl)
	t.Cleanup(func() { workloads = saved })
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "tiny", "-seed", "8", "-seconds", "0", "-trace", trace, "-root", ".."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res, stderr.String()
}

var storeLine = regexp.MustCompile(`store listening at (\S+)`)

// assertStopped checks that every store the run started refuses
// connections and that the run left no scratch directory behind.
func assertStopped(t *testing.T, stderr string) {
	t.Helper()
	found := storeLine.FindAllStringSubmatch(stderr, -1)
	if len(found) == 0 {
		t.Fatalf("no store address in the log:\n%s", stderr)
	}
	for _, m := range found {
		u, err := url.Parse(m[1])
		if err != nil {
			t.Fatal(err)
		}
		if c, err := net.DialTimeout("tcp", u.Host, time.Second); err == nil {
			c.Close()
			t.Errorf("store %s still accepts connections after the run", u.Host)
		}
	}
	left, err := filepath.Glob(filepath.Join("..", ".bench_build", "tmp", "tiny-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("scratch left behind: %v", left)
	}
}

func TestTinyRunStopsStoreAndCleansUp(t *testing.T) {
	res, stderr := runTiny(t, tinyWorkload(t, goldenDigest(t, "d1_overheads.csv")), "0")
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v, want correct with no failures\n%s", res, stderr)
	}
	for _, name := range []string{"setup_s", "wall_s", "cpu_s", "alloc_mb"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", name, m)
		}
	}
	assertStopped(t, stderr)
}

func TestFailedCheckStillStopsStore(t *testing.T) {
	res, stderr := runTiny(t, tinyWorkload(t, digest([]byte("not the golden"))), "0")
	if res.Correct || res.Failed == 0 {
		t.Errorf("result %+v, want a failed check", res)
	}
	if !strings.Contains(stderr, "d1_overheads.csv: sha256") {
		t.Errorf("the failure is not reported:\n%s", stderr)
	}
	assertStopped(t, stderr)
}

func TestTracedRunReportsLayers(t *testing.T) {
	res, stderr := runTiny(t, tinyWorkload(t, goldenDigest(t, "d1_overheads.csv")), "1")
	if !res.Correct {
		t.Errorf("result %+v, want correct\n%s", res, stderr)
	}
	// Every pass is cold: each lookup misses the store, each trained
	// result is stored, and nothing fails.
	if res.Metrics["core.networks_trained"].Value == 0 {
		t.Error("core.networks_trained = 0 on a cold pass")
	}
	for _, name := range []string{"cache.http.hit_ratio", "cache.http.errors", "fabric.errors"} {
		if got := res.Metrics[name].Value; got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
	}
	if res.Metrics["cache.http.puts"].Value != res.Metrics["fabric.puts"].Value {
		t.Errorf("client puts %g, server puts %g", res.Metrics["cache.http.puts"].Value, res.Metrics["fabric.puts"].Value)
	}
	if _, ok := res.Metrics["trace.overhead_pc"]; !ok {
		t.Error("trace.overhead_pc missing")
	}
	assertStopped(t, stderr)
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "entry:X", Start: 0, End: 100},
		// Two overlapping cache calls cover [10, 50) together.
		{ID: 2, Parent: 1, Name: "cache.network.http.get", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "cache.network.http.put", Start: 30, End: 50},
		// The store served part of the first call.
		{ID: 4, Parent: 2, Name: "fabric.get", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for layer, want := range map[string]time.Duration{"suite": 60, "cache_http": 40, "fabric": 10} {
		if self[layer] != want {
			t.Errorf("self time of %s = %d, want %d", layer, self[layer], want)
		}
	}
}
