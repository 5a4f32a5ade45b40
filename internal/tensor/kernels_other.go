//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the Go loops are the only path, and the
// kernels below are never called.
const haveAVX2 = false

func sumRowsAVX2(out, data []float64, cols int, active []int) { panic("tensor: no AVX2") }

func sumRowsScaledAVX2(out, data []float64, cols int, active []int, s float64) {
	panic("tensor: no AVX2")
}

func lifStepAVX2(v, theta []float64, refrac []int, drive, gain, threshScale []float64, rest, decay, thresh, thetaDecay float64, spikes []uint64) {
	panic("tensor: no AVX2")
}

func lifStepFrozenAVX2(v []float64, refrac []int, drive, gain, effThresh []float64, rest, decay float64, spikes []uint64) {
	panic("tensor: no AVX2")
}
