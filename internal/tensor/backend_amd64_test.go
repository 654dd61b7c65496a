//go:build amd64 && !purego

package tensor

import (
	"math"
	"slices"
	"testing"
)

// archExpPath evaluates math.Exp's amd64 routine (archExp, in
// $GOROOT/src/math/exp_amd64.s) on its branch-free path in Go: with
// fused, the FMA sequence the avx2 exp kernel replays; without, the
// separate multiply and add math.Exp runs when it sees no FMA.
func archExpPath(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	fma := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return a*b + c
	}
	k := math.RoundToEven(log2e * x)
	r := fma(-k, ln2u, x)
	r = fma(-k, ln2l, r) * 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = fma(r, p, c)
	}
	y := r * p
	for i := 0; i < 3; i++ {
		y *= y + 2
	}
	return fma(y+2, y, 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpKernelGate pins the exp kernel's gate: "fma" is in CPUFeatures
// exactly when the kernel is on, and the kernel is on exactly when the CPU
// can run it and math.Exp takes its FMA path in this process — which
// GODEBUG=cpu.fma=off turns off whatever the CPU has. It also pins that
// every probe input tells math.Exp's two paths apart, so the init probe
// cannot pass on the path the kernel does not replay.
func TestExpKernelGate(t *testing.T) {
	listed := slices.Contains(CPUFeatures(), "fma")
	if listed != expKernel {
		t.Fatalf(`"fma" in CPUFeatures() = %v, exp kernel on = %v`, listed, expKernel)
	}
	mathFused := true
	for _, v := range expProbe {
		fused, unfused := archExpPath(v, true), archExpPath(v, false)
		if fused == unfused {
			t.Errorf("probe input %v: math.Exp's two paths agree (%#x)", v, math.Float64bits(fused))
		}
		if math.Float64bits(math.Exp(v)) != math.Float64bits(fused) {
			mathFused = false
		}
	}
	if avx2, fma := detectAMD64(); !avx2 || !fma {
		if listed {
			t.Fatalf("exp kernel on, but the CPU reports avx2=%v fma=%v", avx2, fma)
		}
		return
	}
	if listed != mathFused {
		t.Fatalf("exp kernel on = %v, but math.Exp takes its FMA path = %v", listed, mathFused)
	}
}
