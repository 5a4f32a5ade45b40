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

func depressRowsAVX2(data []float64, cols int, rows []int, d []float64, sel []uint64) {
	panic("tensor: no AVX2")
}

func potentiateRowsAVX2(data []float64, cols int, rows []int, a []float64, wmax float64, sel []uint64) {
	panic("tensor: no AVX2")
}

func colSumsAVX2(s, data []float64, rows, cols int) { panic("tensor: no AVX2") }

func scaleColsAVX2(data []float64, rows, cols int, s []float64, target float64) {
	panic("tensor: no AVX2")
}
