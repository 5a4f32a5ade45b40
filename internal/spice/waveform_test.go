package spice

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDCWaveform(t *testing.T) {
	w := DC(3.3)
	for _, tm := range []float64{0, 1e-9, 1} {
		if w.At(tm) != 3.3 {
			t.Fatalf("DC at %v = %v", tm, w.At(tm))
		}
	}
}

func TestPulseShape(t *testing.T) {
	p := Pulse{Low: 0, High: 1, Delay: 10e-9, Rise: 2e-9, Fall: 2e-9, Width: 20e-9, Period: 100e-9}
	cases := []struct{ tm, want float64 }{
		{0, 0},       // before delay
		{11e-9, 0.5}, // mid-rise
		{20e-9, 1},   // plateau
		{33e-9, 0.5}, // mid-fall
		{50e-9, 0},   // off
		{120e-9, 1},  // second period plateau
	}
	for _, c := range cases {
		if got := p.At(c.tm); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Pulse at %v = %v, want %v", c.tm, got, c.want)
		}
	}
}

func TestPulseOneShot(t *testing.T) {
	p := Pulse{Low: 0, High: 1, Rise: 1e-9, Fall: 1e-9, Width: 10e-9, Period: 0}
	if p.At(5e-9) != 1 {
		t.Fatal("one-shot pulse should be high inside width")
	}
	if p.At(1) != 0 {
		t.Fatal("one-shot pulse must stay low after the pulse")
	}
}

func TestSpikeTrainShape(t *testing.T) {
	s := SpikeTrain{Amp: 200e-9, Width: 25e-9, Period: 50e-9}
	if got := s.At(12e-9); math.Abs(got-200e-9) > 1e-15 {
		t.Fatalf("plateau = %v", got)
	}
	if got := s.At(40e-9); got != 0 {
		t.Fatalf("gap = %v", got)
	}
	// Periodicity.
	if math.Abs(s.At(12e-9)-s.At(62e-9)) > 1e-18 {
		t.Fatal("spike train must repeat")
	}
	// Delay shifts everything.
	d := SpikeTrain{Amp: 1, Width: 10e-9, Period: 100e-9, Delay: 50e-9}
	if d.At(20e-9) != 0 {
		t.Fatal("before delay must be zero")
	}
}

func TestSpikeTrainAverageMatchesDuty(t *testing.T) {
	s := SpikeTrain{Amp: 1, Width: 25e-9, Period: 50e-9}
	avg := stepAverage(s, 0, 500e-9)
	// Duty ≈ width/period with 5% edges: expect ≈0.475.
	if avg < 0.4 || avg > 0.55 {
		t.Fatalf("step average %v, want ≈0.475", avg)
	}
}

func TestStepAverageDCExact(t *testing.T) {
	if got := stepAverage(DC(2.5), 0, 1e-9); got != 2.5 {
		t.Fatalf("DC step average = %v", got)
	}
}

func TestPWLValidation(t *testing.T) {
	if _, err := NewPWL([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing PWL times must fail")
	}
	if _, err := NewPWL([]float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := NewPWL(nil, nil); err == nil {
		t.Fatal("empty PWL must fail")
	}
}

func TestPWLInterpAndClamp(t *testing.T) {
	p, err := NewPWL([]float64{1e-6, 2e-6}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0) != 0 {
		t.Fatal("PWL must clamp before first point")
	}
	if p.At(3e-6) != 1 {
		t.Fatal("PWL must clamp after last point")
	}
	if got := p.At(1.5e-6); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("PWL midpoint = %v", got)
	}
}

func TestSineShape(t *testing.T) {
	s := Sine{Offset: 0.5, Amp: 0.2, Freq: 1e6}
	if got := s.At(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sine at 0 = %v", got)
	}
	if got := s.At(0.25e-6); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("sine at quarter period = %v", got)
	}
	d := Sine{Offset: 1, Amp: 1, Freq: 1e6, Delay: 1e-6}
	if d.At(0.5e-6) != 1 {
		t.Fatal("delayed sine must hold offset before delay")
	}
}

// Property: SpikeTrain is periodic: At(t) == At(t + k·Period) for t ≥ 0.
func TestSpikeTrainPeriodicityProperty(t *testing.T) {
	s := SpikeTrain{Amp: 1, Width: 20e-9, Period: 80e-9}
	f := func(raw float64, kRaw uint8) bool {
		tm := math.Mod(math.Abs(raw), 80e-9)
		k := float64(kRaw%10) + 1
		a := s.At(tm)
		b := s.At(tm + k*80e-9)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pulse output is always within [Low, High].
func TestPulseBoundedProperty(t *testing.T) {
	p := Pulse{Low: -0.2, High: 1.1, Delay: 5e-9, Rise: 3e-9, Fall: 7e-9, Width: 11e-9, Period: 37e-9}
	f := func(raw float64) bool {
		v := p.At(math.Abs(raw))
		return v >= p.Low-1e-12 && v <= p.High+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureCrossings(t *testing.T) {
	tm := []float64{0, 1, 2, 3, 4}
	v := []float64{0, 1, 0, 1, 0}
	rise := Crossings(tm, v, 0.5, true)
	fall := Crossings(tm, v, 0.5, false)
	if len(rise) != 2 || len(fall) != 2 {
		t.Fatalf("rise %v fall %v", rise, fall)
	}
	if math.Abs(rise[0]-0.5) > 1e-12 || math.Abs(fall[0]-1.5) > 1e-12 {
		t.Fatalf("interpolated crossings wrong: %v %v", rise, fall)
	}
	if _, err := FirstCrossing(tm, v, 2.0, true); err == nil {
		t.Fatal("crossing above the waveform must error")
	}
}

func TestMeasureSpikeCountAndPeriod(t *testing.T) {
	var tm, v []float64
	// Three clean spikes 10 units apart.
	for i := 0; i < 40; i++ {
		tm = append(tm, float64(i))
		if i%10 >= 3 && i%10 <= 5 {
			v = append(v, 1)
		} else {
			v = append(v, 0)
		}
	}
	if n := SpikeCount(tm, v, 0.5); n != 4 {
		t.Fatalf("SpikeCount = %d, want 4", n)
	}
	p, err := SpikePeriod(tm, v, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-10) > 0.01 {
		t.Fatalf("SpikePeriod = %v, want 10", p)
	}
	if _, err := SpikePeriod(tm[:12], v[:12], 0.5); err == nil {
		t.Fatal("too few spikes must error")
	}
}

func TestMeasurePeakMeanSettled(t *testing.T) {
	tm := []float64{0, 1, 2, 3, 4}
	v := []float64{0, 4, 2, 2, 2}
	if got := Peak(tm, v, 0, 4); got != 4 {
		t.Fatalf("Peak = %v", got)
	}
	if got := Peak(tm, v, 2, 4); got != 2 {
		t.Fatalf("windowed Peak = %v", got)
	}
	if got := Mean(tm, v, 2, 4); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := SettledValue(tm, v, 0.5); got != 2 {
		t.Fatalf("SettledValue = %v", got)
	}
	if got := Mean(nil, nil, 0, 1); got != 0 {
		t.Fatalf("empty Mean = %v", got)
	}
	if got := SettledValue(nil, nil, 0.1); got != 0 {
		t.Fatalf("empty SettledValue = %v", got)
	}
}

// FuzzPeriodMod: the fused-multiply-add period remainder equals
// math.Mod bit for bit, signed zeros and NaNs included.
func FuzzPeriodMod(f *testing.F) {
	const p = 50e-9 // the paper's spike-train period
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	for _, s := range [][2]float64{
		{0, p}, {negZero, p}, {p, 0}, {p, negZero}, {0, 0},
		{tiny, p}, {p, tiny}, {3 * tiny, 2 * tiny}, {0x1p-1022, 3 * tiny},
		{-1.5 * p, p}, {1.5 * p, -p}, {-1.5 * p, -p},
		{1e10, p}, {0x1p60, 3}, {math.MaxFloat64, p}, {1e300, 1e-300},
		{math.NaN(), p}, {p, math.NaN()},
		{math.Inf(1), p}, {math.Inf(-1), p}, {p, math.Inf(1)}, {p, math.Inf(-1)},
	} {
		f.Add(s[0], s[1])
	}
	for _, k := range []float64{1, 2, 3, 7, 400, 3000, 1 << 20, 1 << 53, 1<<53 + 2} {
		t := k * p
		f.Add(t, p)
		f.Add(math.Nextafter(t, 0), p)
		f.Add(math.Nextafter(t, math.Inf(1)), p)
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		got, want := periodMod(x, y), math.Mod(x, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("periodMod(%v, %v) = %v (%#x), math.Mod = %v (%#x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestPeriodModOnStimulusGrid: at every time the F4 transient samples
// its spike train (32 step-average samples per 10 ns step over 150 µs,
// computed as Tran and stepAverage compute them) the remainder equals
// math.Mod bit for bit.
func TestPeriodModOnStimulusGrid(t *testing.T) {
	const dt, steps, samples, period = 10e-9, 15000, 32, 50e-9
	for step := 1; step <= steps; step++ {
		t1 := float64(step) * dt
		t0 := t1 - (t1 - float64(step-1)*dt)
		h := (t1 - t0) / samples
		for i := 0; i < samples; i++ {
			x := t0 + (float64(i)+0.5)*h
			if got, want := periodMod(x, period), math.Mod(x, period); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d sample %d: periodMod(%v) = %v, math.Mod = %v", step, i, x, got, want)
			}
		}
	}
}
