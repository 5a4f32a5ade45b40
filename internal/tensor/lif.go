package tensor

// MaskWords returns the number of 64-bit words a bitmask over n
// elements spans: bit i&63 of word i>>6 stands for element i.
func MaskWords(n int) int { return (n + 63) >> 6 }

// LIFStep advances a layer of leaky integrate-and-fire neurons with
// adaptive thresholds one timestep, up to the spike decision. For each
// neuron i, in this order:
//
//	v[i] = rest + (v[i]−rest)·decay       relax toward rest
//	theta[i] = theta[i]·thetaDecay        decay the adaptive threshold
//	if refrac[i] > 0: refrac[i]−−         refractory: keep the relaxed v,
//	                                      add no drive, never spike
//	else: v[i] += drive[i]·gain[i]
//	      spike if v[i] ≥ (thresh+theta[i])·threshScale[i]
//
// It sets bit i of spikes (see MaskWords) for each spiking neuron and
// clears every other bit of the first MaskWords(len(v)) words. The
// comparison is ordered, so a NaN membrane or threshold never fires.
// A spiking neuron keeps its driven v: its reset, refractory count,
// threshold increment and trace are the caller's, which walks the set
// bits. A thetaDecay of 1 leaves theta's bits unchanged. Every vector
// and refrac must have len(v) elements.
//
// On amd64 with AVX2 an assembly kernel steps four neurons per
// instruction (see kernels_amd64.s). Each lane performs the Go loop's
// IEEE operations in the same order — a rounded multiply, then an add,
// never a fused multiply-add — so the results are bit-identical to
// lifStepGeneric.
func LIFStep(v, theta Vector, refrac []int, drive, gain, threshScale Vector, rest, decay, thresh, thetaDecay float64, spikes []uint64) {
	n := len(v)
	checkLen(len(theta), n)
	checkLen(len(refrac), n)
	checkLen(len(drive), n)
	checkLen(len(gain), n)
	checkLen(len(threshScale), n)
	spikes = spikes[:MaskWords(n)]
	clear(spikes)
	lo := 0
	if haveAVX2 {
		lifStepAVX2(v, theta, refrac, drive, gain, threshScale, rest, decay, thresh, thetaDecay, spikes)
		lo = n &^ 3
	}
	if lo < n {
		lifStepGeneric(lo, v, theta, refrac, drive, gain, threshScale, rest, decay, thresh, thetaDecay, spikes)
	}
}

// lifStepGeneric is LIFStep in Go from neuron lo on: the whole step off
// amd64 or without AVX2, the one-to-three-neuron tail after the
// assembly kernel, and the reference the kernel is tested against. It
// ORs spike bits into spikes, which the caller cleared. The membrane
// decay runs first as a 4-wide pass, then the branchy pass reads the
// decayed values — bit-identical to one fused loop, since each decay
// touches its own element.
func lifStepGeneric(lo int, v, theta Vector, refrac []int, drive, gain, threshScale Vector, rest, decay, thresh, thetaDecay float64, spikes []uint64) {
	v[lo:].DecayToward(rest, decay)
	theta, refrac = theta[:len(v)], refrac[:len(v)]
	drive, gain, threshScale = drive[:len(v)], gain[:len(v)], threshScale[:len(v)]
	for i := lo; i < len(v); i++ {
		th := theta[i] * thetaDecay
		theta[i] = th
		if refrac[i] > 0 {
			refrac[i]--
			continue
		}
		x := v[i] + drive[i]*gain[i]
		if x >= (thresh+th)*threshScale[i] {
			spikes[i>>6] |= 1 << (i & 63)
		}
		v[i] = x
	}
}
