package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// cooCSR returns a rows×cols pattern of nnz random coordinates, handed to
// NewCSR in the order drawn, so not sorted by row; at these densities
// some coordinates repeat.
func cooCSR(rows, cols, nnz int, rng *rand.Rand) *CSR {
	ri, ci := make([]int, nnz), make([]int, nnz)
	for k := range ri {
		ri[k], ci[k] = rng.Intn(rows), rng.Intn(cols)
	}
	return NewCSR(rows, cols, ri, ci)
}

// TestSparseBackwardMatchesCSCGather holds the SpMM and GIN backwards,
// which multiply by each CSR's T, bit for bit against the CSC gather they
// replaced (SpMMCSC), on every compiled backend: SpMM's value and dA, and
// GIN's value, dh and dε against the unfused chain on SpMMCSC with one
// and with two adjacencies. The hand-written patterns hold a repeated
// coordinate, an empty row and an empty column, one of them non-square,
// and come as COO out of row order; the random ones sit just below and
// just above spmmParallelFlops, so the backward's product runs serial
// and fanned out.
func TestSparseBackwardMatchesCSCGather(t *testing.T) {
	active := ActiveBackend()
	defer SetBackend(active)
	rng := rand.New(rand.NewSource(66))
	type sparseCase struct {
		name string
		adj  []*CSR
		d    int
	}
	// 5×5: rows 2 and 4 and column 3 are empty, (3,1) is stored twice.
	sq := NewCSR(5, 5, []int{3, 0, 3, 1, 0, 3}, []int{1, 4, 1, 1, 2, 0})
	sq2 := NewCSR(5, 5, []int{4, 2, 2, 0}, []int{0, 2, 2, 3})
	// 4×6: row 1 and columns 0, 4 and 5 are empty, (2,3) is stored twice.
	wide := NewCSR(4, 6, []int{2, 0, 3, 2, 0}, []int{3, 1, 2, 3, 3})
	below, above := cooCSR(400, 400, 2000, rng), cooCSR(400, 400, 2400, rng)
	if below.NNZ()*16 >= spmmParallelFlops || above.NNZ()*16 < spmmParallelFlops {
		t.Fatalf("nnz·d = %d and %d do not straddle spmmParallelFlops", below.NNZ()*16, above.NNZ()*16)
	}
	cases := []sparseCase{
		{"square", []*CSR{sq}, 3},
		{"square-two", []*CSR{sq, sq2}, 3},
		{"non-square", []*CSR{wide}, 2},
		{"below-parallel", []*CSR{below}, 16},
		{"below-parallel-two", []*CSR{below, cooCSR(400, 400, 2000, rng)}, 16},
		{"above-parallel", []*CSR{above}, 16},
		{"above-parallel-two", []*CSR{above, cooCSR(400, 400, 2400, rng)}, 16},
	}
	type compared struct {
		name      string
		got, want []float64
	}
	// run records agg on a fresh tape over h and a 1×1 ε, sweeps a loss
	// whose upstream gradient varies by element, and returns the output
	// value and the gradients of h and ε.
	run := func(h, eps, w *Matrix, agg func(tp *Tape, hv, ev *Node) *Node) (out, dh, de []float64) {
		tp := NewTape()
		hv, ev := tp.Var(h), tp.Var(eps)
		o := agg(tp, hv, ev)
		tp.Keep(o)
		tp.Backward(tp.SumAll(tp.Tanh(tp.Mul(o, tp.Const(w)))))
		out, dh = append(out, o.Value.Data...), append(dh, hv.Grad.Data...)
		if ev.Grad != nil { // SpMM leaves ε out
			de = append(de, ev.Grad.Data...)
		}
		tp.Reset()
		return out, dh, de
	}
	for _, c := range cases {
		a0 := c.adj[0]
		h := Randn(a0.Cols, c.d, 0.7, rng)
		eps := Randn(1, 1, 0.3, rng)
		wSpMM := Randn(a0.Rows, c.d, 1, rng)
		for _, name := range BackendNames() {
			t.Run(fmt.Sprintf("%s/%s", c.name, name), func(t *testing.T) {
				if err := SetBackend(name); err != nil {
					t.Fatal(err)
				}
				var checks []compared
				if len(c.adj) == 1 {
					got, gotDh, _ := run(h, eps, wSpMM, func(tp *Tape, hv, _ *Node) *Node { return tp.SpMM(a0, hv) })
					want, wantDh, _ := run(h, eps, wSpMM, func(tp *Tape, hv, _ *Node) *Node { return tp.SpMMCSC(a0, hv) })
					checks = append(checks, compared{"SpMM value", got, want}, compared{"SpMM dA", gotDh, wantDh})
				}
				if a0.Rows == a0.Cols {
					got, gotDh, gotDe := run(h, eps, wSpMM, func(tp *Tape, hv, ev *Node) *Node { return tp.GIN(hv, ev, c.adj...) })
					want, wantDh, wantDe := run(h, eps, wSpMM, func(tp *Tape, hv, ev *Node) *Node {
						self := tp.MulColVec(hv, tp.GatherRows(tp.AddScalar(ev, 1), make([]int, a0.Rows)))
						agg := tp.SpMMCSC(c.adj[0], hv)
						for _, a := range c.adj[1:] {
							agg = tp.Add(agg, tp.SpMMCSC(a, hv))
						}
						return tp.Add(self, agg)
					})
					checks = append(checks, compared{"GIN value", got, want}, compared{"GIN dh", gotDh, wantDh},
						compared{"GIN dε", gotDe, wantDe})
				}
				for _, ch := range checks {
					if len(ch.got) != len(ch.want) {
						t.Fatalf("%s: %d values, reference %d", ch.name, len(ch.got), len(ch.want))
					}
					if i, ok := sameBits(ch.got, ch.want); !ok {
						t.Fatalf("%s[%d] = %v, reference %v", ch.name, i, ch.got[i], ch.want[i])
					}
				}
			})
		}
	}
}
