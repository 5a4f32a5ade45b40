package neuron

import (
	"fmt"

	"snnfi/internal/spice"
)

// Time-to-spike and the latch threshold are settled at one event, so
// their transients record only the node they read and stop there
// (spice.TranOptions.Until). The stopped run's samples are the full
// run's up to the event, so the value and its cache key are unchanged.
// A window too short for the event fails as before; a Newton failure
// after the event no longer fails the measurement.

// timeToSpike returns the first rising crossing of vdd/2 on node in a
// transient of c from a discharged membrane.
func timeToSpike(c *spice.Circuit, node string, vdd, stop, dt float64) (float64, error) {
	level := vdd / 2
	res, err := c.Tran(spice.TranOptions{
		Dt: dt, Stop: stop, UIC: true, Record: []string{node},
		// The last step crossed, by the rule FirstCrossing applies.
		Until: func(r *spice.TranResult) bool {
			n := len(r.Time)
			return n > 1 && len(spice.Crossings(r.Time[n-2:], r.V(node)[n-2:], level, true)) > 0
		},
	})
	if err != nil {
		return 0, err
	}
	return spice.FirstCrossing(res.Time, res.V(node), level, true)
}

// latchJump is the per-step membrane rise that marks the regenerative
// latch: far above the input-driven charging slope of either neuron
// (~1 mV per 10 ns step for the comparator AH, ~0.1 mV for the I&F).
const latchJump = 0.02

// jumpAt reports whether the membrane latched between samples i−1 and i.
func jumpAt(vmem []float64, i int) bool { return vmem[i]-vmem[i-1] > latchJump }

// latchThreshold returns the "vmem" sample just before the membrane's
// first latch jump in a transient of c from a discharged membrane. name
// labels the error when the window ends before the latch.
func latchThreshold(c *spice.Circuit, name string, stop, dt float64) (float64, error) {
	res, err := c.Tran(spice.TranOptions{
		Dt: dt, Stop: stop, UIC: true, Record: []string{"vmem"},
		Until: func(r *spice.TranResult) bool {
			n := len(r.Time)
			return n > 1 && jumpAt(r.V("vmem"), n-1)
		},
	})
	if err != nil {
		return 0, err
	}
	vmem := res.V("vmem")
	for i := 1; i < len(vmem); i++ {
		if jumpAt(vmem, i) {
			return vmem[i-1], nil
		}
	}
	return 0, fmt.Errorf("neuron: %s never latched within %.3g s", name, stop)
}
