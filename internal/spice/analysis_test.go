package spice

import (
	"bytes"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"testing"
)

// rcCircuit builds the 1 kΩ / 1 µF step-response fixture used by the
// transient grid tests (tau = 1 ms).
func rcCircuit() *Circuit {
	c := New()
	c.V("V1", "in", "0", DC(1.0))
	c.R("R1", "in", "out", 1e3)
	c.C("C1", "out", "0", 1e-6)
	return c
}

// TestTranFinalPartialStep: a Stop that is not an integer multiple of
// Dt must end with a short step to exactly Stop instead of silently
// truncating the run (the old round(Stop/Dt)+1 grid ended Stop=1 ms,
// Dt=0.3 ms at t=0.9 ms).
func TestTranFinalPartialStep(t *testing.T) {
	res, err := rcCircuit().Tran(TranOptions{Dt: 0.3e-3, Stop: 1.0e-3, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.3e-3, 0.6e-3, 0.9e-3, 1.0e-3}
	if len(res.Time) != len(want) {
		t.Fatalf("time grid %v, want %v", res.Time, want)
	}
	for i, w := range want {
		if math.Abs(res.Time[i]-w) > 1e-12 {
			t.Fatalf("time[%d] = %g, want %g (grid %v)", i, res.Time[i], w, res.Time)
		}
	}
	// The final point must carry a real solve: V(out) at t = tau is
	// 1 − e⁻¹ within integration error.
	v := res.V("out")
	if math.Abs(v[len(v)-1]-(1-math.Exp(-1))) > 0.05 {
		t.Fatalf("V(out) at Stop = %g, want ≈ %g", v[len(v)-1], 1-math.Exp(-1))
	}
}

// TestTranExactMultipleGrid: when Stop is an exact multiple of Dt the
// grid must end exactly at Stop with no extra sliver step.
func TestTranExactMultipleGrid(t *testing.T) {
	res, err := rcCircuit().Tran(TranOptions{Dt: 0.25e-3, Stop: 1.0e-3, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != 5 {
		t.Fatalf("expected 5 points, got %d: %v", len(res.Time), res.Time)
	}
	if math.Abs(res.Time[4]-1.0e-3) > 1e-12 {
		t.Fatalf("last time %g, want 1e-3", res.Time[4])
	}
}

// TestTranNoOvershoot: the old rounding also overshot Stop when the
// ratio rounded up (Stop=0.8 ms, Dt=0.3 ms simulated to 0.9 ms); the
// grid must never step past Stop.
func TestTranNoOvershoot(t *testing.T) {
	res, err := rcCircuit().Tran(TranOptions{Dt: 0.3e-3, Stop: 0.8e-3, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Time[len(res.Time)-1]
	if math.Abs(last-0.8e-3) > 1e-12 {
		t.Fatalf("last time %g, want exactly Stop=0.8e-3 (grid %v)", last, res.Time)
	}
	for _, tt := range res.Time {
		if tt > 0.8e-3+1e-12 {
			t.Fatalf("grid steps past Stop: %v", res.Time)
		}
	}
}

// untilFixture runs the RC fixture over ten full steps and a final
// partial one, with an optional stop predicate.
func untilFixture(t *testing.T, until func(*TranResult) bool) *TranResult {
	t.Helper()
	res, err := rcCircuit().Tran(TranOptions{Dt: 0.1e-3, Stop: 1.05e-3, UIC: true, Until: until})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTranUntilNeverFiring: a stop predicate that never fires is
// consulted once per full step and leaves the run exactly as it is
// without one, final partial step included.
func TestTranUntilNeverFiring(t *testing.T) {
	full := untilFixture(t, nil)
	calls := 0
	got := untilFixture(t, func(*TranResult) bool { calls++; return false })
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("never-firing predicate changed the run:\n got %+v\nwant %+v", got, full)
	}
	if calls != 10 {
		t.Fatalf("predicate called %d times, want once per full step (10)", calls)
	}
}

// TestTranUntilStopsAtStep: a predicate that fires at full step k
// returns exactly the full run's first k+1 samples — every node and
// branch current, bit for bit.
func TestTranUntilStopsAtStep(t *testing.T) {
	full := untilFixture(t, nil)
	for k := 1; k <= 10; k++ {
		got := untilFixture(t, func(r *TranResult) bool { return len(r.Time) == k+1 })
		want := &TranResult{Time: full.Time[:k+1], nodes: map[string][]float64{}, branchCur: map[string][]float64{}}
		for name, v := range full.nodes {
			want.nodes[name] = v[:k+1]
		}
		for name, v := range full.branchCur {
			want.branchCur[name] = v[:k+1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop at step %d:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// TestDebugNRReportsUnscaledDelta: the non-convergence diagnostic must
// report the last *unscaled* Newton update, captured before the iterate
// absorbs it. The old code computed xNew − X after X was updated, which
// at damping scale 1 always printed ~0 — useless. Here a linear solve
// from a slightly perturbed start converges arithmetically in one
// iteration but fails the tolerance check at MaxIter=1, and the
// diagnostic must name the true ~1 mV delta.
func TestDebugNRReportsUnscaledDelta(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1.0))
	c.R("R1", "in", "mid", 1e3)
	c.R("R2", "mid", "0", 1e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	ctx.X[c.Node("mid")] += 1e-3

	var buf bytes.Buffer
	oldDebug, oldOut := debugNR, debugOut
	debugNR, debugOut = true, &buf
	defer func() { debugNR, debugOut = oldDebug, oldOut }()

	if err := c.solveNewton(ctx, NROptions{MaxIter: 1}); err == nil {
		t.Fatal("expected non-convergence at MaxIter=1")
	}
	m := regexp.MustCompile(`worst delta ([0-9.eE+-]+)`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no worst-delta diagnostic in %q", buf.String())
	}
	worst, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("unparsable delta %q", m[1])
	}
	// The true unscaled update undoes the 1 mV perturbation; the stale
	// computation would report ~0 here.
	if worst < 1e-4 || worst > 1e-2 {
		t.Fatalf("diagnostic delta %g, want ≈ 1e-3 (stale post-update delta would be ~0)", worst)
	}
}
