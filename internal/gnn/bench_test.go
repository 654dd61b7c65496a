package gnn

import (
	"math/rand"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

func benchGraph(n, edges int) *dyngraph.Snapshot {
	rng := rand.New(rand.NewSource(1))
	s := dyngraph.NewSnapshot(n, 4)
	for e := 0; e < edges; e++ {
		s.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			s.X.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// BenchmarkEncode measures the bi-flow encoding on an eval tape, as
// generation and forecast encoding run it.
func BenchmarkEncode(b *testing.B) {
	enc := NewBiFlowEncoder("e", BiFlowConfig{
		InDim: 4, Hidden: 16, OutDim: 16, Layers: 2, MLPLayers: 1, BiFlow: true,
	}, rand.New(rand.NewSource(2)))
	s := benchGraph(1000, 8000)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(c, s)
		tape.Reset()
	}
}

// BenchmarkGATApply measures attention aggregation on an eval tape.
func BenchmarkGATApply(b *testing.B) {
	g := NewGAT("g", 24, 16, rand.New(rand.NewSource(3)))
	s := benchGraph(1000, 8000)
	src, dst := s.EdgeLists()
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	states := tape.Const(tensor.Randn(1000, 24, 1, rand.New(rand.NewSource(4))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(c, states, src, dst, 1000)
		tape.Reset()
	}
}
