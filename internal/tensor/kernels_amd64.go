package tensor

// haveAVX2 selects the assembly kernels of kernels_amd64.s. It is set
// once, at package initialization, from CPUID.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1's
// OSXSAVE bit, XCR0's SSE and AVX state bits, and leaf 7's AVX2 bit.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() uint32

//go:noescape
func sumRowsAVX2(out, data []float64, cols int, active []int)

//go:noescape
func sumRowsScaledAVX2(out, data []float64, cols int, active []int, s float64)

//go:noescape
func lifStepAVX2(v, theta []float64, refrac []int, drive, gain, threshScale []float64, rest, decay, thresh, thetaDecay float64, spikes []uint64)

//go:noescape
func depressRowsAVX2(data []float64, cols int, rows []int, d []float64, sel []uint64)

//go:noescape
func potentiateRowsAVX2(data []float64, cols int, rows []int, a []float64, wmax float64, sel []uint64)

//go:noescape
func colSumsAVX2(s, data []float64, rows, cols int)

//go:noescape
func scaleColsAVX2(data []float64, rows, cols int, s []float64, target float64)
