package metrics

import (
	"testing"
)

func BenchmarkCompareStructure(b *testing.B) {
	orig := randomSequence(200, 0, 6, 800, 1)
	gen := randomSequence(200, 0, 6, 800, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareStructure(orig, gen)
	}
}

func BenchmarkCoreness(b *testing.B) {
	g := randomSequence(2000, 0, 1, 16000, 3)
	s := g.At(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coreness(s)
	}
}

func BenchmarkClusteringCoefficients(b *testing.B) {
	g := randomSequence(500, 0, 1, 4000, 4)
	s := g.At(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClusteringCoefficients(s)
	}
}

// BenchmarkMMD times both sides of the property MMD's grouping relies on:
// degrees, N = 5 000 integers in 0–150 as in a ×1.0 snapshot, repeat
// heavily; 500 normals are all distinct, the worst case.
func BenchmarkMMD(b *testing.B) {
	for _, bc := range []struct {
		name string
		x, y []float64
	}{
		{"degrees", degreeSample(5000, 2.2, 5), degreeSample(5000, 2.2, 6)},
		{"distinct", normalSample(500, 0, 1, 5), normalSample(500, 1, 2, 6)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MMD(bc.x, bc.y, 1)
			}
		})
	}
}

func BenchmarkEMD(b *testing.B) {
	x := normalSample(5000, 0, 1, 7)
	y := normalSample(5000, 1, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EMD(x, y)
	}
}

func BenchmarkSpearman(b *testing.B) {
	x := normalSample(5000, 0, 1, 9)
	y := normalSample(5000, 0, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Spearman(x, y)
	}
}
