package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestGetReturnsZeroedBuffers: recycled buffers must be indistinguishable
// from fresh allocations, whatever garbage the previous owner left behind.
func TestGetReturnsZeroedBuffers(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		m := Get(13, 7)
		for i := range m.Data {
			m.Data[i] = math.NaN()
		}
		Put(m)
		n := Get(13, 7) // same bucket; likely the recycled buffer
		if n.Rows != 13 || n.Cols != 7 || len(n.Data) != 13*7 {
			t.Fatalf("Get(13,7) shape = %dx%d len %d", n.Rows, n.Cols, len(n.Data))
		}
		for i, v := range n.Data {
			if v != 0 {
				t.Fatalf("trial %d: recycled buffer entry %d = %v, want 0", trial, i, v)
			}
		}
		Put(n)
	}
}

// TestPoolStats: the arena must count every Get and Put exactly once and
// recycle returned buffers.
func TestPoolStats(t *testing.T) {
	before := ReadPoolStats()
	const rounds = 64
	ms := make([]*Matrix, rounds)
	for i := range ms {
		ms[i] = Get(16, 16)
	}
	for _, m := range ms {
		Put(m)
	}
	for i := 0; i < rounds; i++ {
		Put(Get(16, 16))
	}
	after := ReadPoolStats()
	if g := after.Gets - before.Gets; g != 2*rounds {
		t.Fatalf("gets delta = %d, want %d", g, 2*rounds)
	}
	if p := after.Puts - before.Puts; p != 2*rounds {
		t.Fatalf("puts delta = %d, want %d", p, 2*rounds)
	}
	if after.Hits <= before.Hits {
		t.Fatal("expected recycled buffers in a hot Get/Put loop")
	}
}

// TestPoolConcurrent hammers one bucket from many goroutines; run with
// -race in CI. Every buffer must come back zeroed, and every Get and Put
// must be counted and balance the live bytes, under contention on the
// bucket's lock.
func TestPoolConcurrent(t *testing.T) {
	const workers, rounds = 16, 200
	before := ReadPoolStats()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := Get(33, 3)
				for _, v := range m.Data {
					if v != 0 {
						errs <- "dirty recycled buffer"
						break
					}
				}
				for j := range m.Data {
					m.Data[j] = 1
				}
				Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	after := ReadPoolStats()
	if g := after.Gets - before.Gets; g != workers*rounds {
		t.Fatalf("gets delta = %d, want %d", g, workers*rounds)
	}
	if p := after.Puts - before.Puts; p != workers*rounds {
		t.Fatalf("puts delta = %d, want %d", p, workers*rounds)
	}
	if after.LiveBytes != before.LiveBytes {
		t.Fatalf("live bytes %d → %d, want unchanged", before.LiveBytes, after.LiveBytes)
	}
}

// TestPoolBucketBudget pins the retention bound: a bucket keeps at most
// maxBucketBytes of free buffers and drops the rest for the GC.
func TestPoolBucketBudget(t *testing.T) {
	const rows, cols = 1 << 10, 1 << 10 // 8 MB buffers: four fill the budget
	const bufBytes = rows * cols * 8
	ms := make([]*Matrix, 5)
	for i := range ms {
		ms[i] = Get(rows, cols) // also drains whatever the bucket held
	}
	before := ReadPoolStats()
	for _, m := range ms {
		Put(m)
	}
	if got := ReadPoolStats().RetainedBytes - before.RetainedBytes; got != maxBucketBytes {
		t.Fatalf("retained bytes grew by %d, want %d (%d buffers)", got, maxBucketBytes, maxBucketBytes/bufBytes)
	}
	for i := range ms {
		h := ReadPoolStats().Hits
		ms[i] = Get(rows, cols)
		hit := ReadPoolStats().Hits > h
		if want := i < maxBucketBytes/bufBytes; hit != want {
			t.Fatalf("Get %d after the Puts: hit = %v, want %v", i, hit, want)
		}
	}
	for _, m := range ms {
		Put(m)
	}
}

// TestPutForeignBufferIgnored: matrices whose capacity is not a bucket
// size (FromSlice wrappers, odd-size New allocations) must be ignored
// rather than corrupting the free lists.
func TestPutForeignBufferIgnored(t *testing.T) {
	data := make([]float64, 100, 100) // 100 is not a power of two
	m := FromSlice(10, 10, data)
	Put(m) // must not panic or enqueue
	Put(nil)
	Put(&Matrix{})
}

// TestTapeResetNotObservable: a computation replayed on a reused tape must
// produce results identical to a fresh tape, no matter what ran on the
// tape in between — pooled buffers must never leak state across Reset.
func TestTapeResetNotObservable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Randn(9, 5, 1, rng)
	w := Randn(5, 4, 1, rng)
	b := Randn(1, 4, 1, rng)

	run := func(tp *Tape) (*Matrix, *Matrix) {
		xv, wv, bv := tp.Var(x), tp.Var(w), tp.Var(b)
		out := tp.Affine(xv, wv, bv, ActTanh)
		loss := tp.MeanAll(tp.Mul(out, out))
		tp.Keep(out) // read after Backward
		tp.Backward(loss)
		return out.Value.Clone(), wv.Grad.Clone()
	}

	fresh := NewTape()
	wantOut, wantGrad := run(fresh)

	reused := NewTape()
	// Pollute the tape and the arena with unrelated work, then Reset.
	junk := reused.Var(Randn(9, 5, 3, rng))
	reused.Backward(reused.SumAll(reused.Sigmoid(junk)))
	reused.Reset()

	gotOut, gotGrad := run(reused)
	if !gotOut.Equal(wantOut, 0) {
		t.Fatal("reused tape produced different forward values than a fresh tape")
	}
	if !gotGrad.Equal(wantGrad, 0) {
		t.Fatal("reused tape produced different gradients than a fresh tape")
	}
}

// TestTapeResetLeavesLeavesAlone: Var/Const wrap caller-owned matrices;
// Reset must not recycle (and thus zero or reuse) their buffers.
func TestTapeResetLeavesLeavesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	param := Randn(6, 6, 1, rng)
	snapshot := param.Clone()
	konst := Randn(6, 6, 1, rng)
	konstCopy := konst.Clone()

	tp := NewTape()
	v := tp.Var(param)
	c := tp.Const(konst)
	tp.Backward(tp.SumAll(tp.Mul(v, c)))
	tp.Reset()

	// Churn the arena: if Reset wrongly pooled the leaves, these Gets would
	// hand their buffers to new owners that promptly scribble on them.
	for i := 0; i < 16; i++ {
		m := Get(6, 6)
		for j := range m.Data {
			m.Data[j] = -1
		}
		Put(m)
	}
	if !param.Equal(snapshot, 0) {
		t.Fatal("Reset recycled a Var-wrapped parameter matrix")
	}
	if !konst.Equal(konstCopy, 0) {
		t.Fatal("Reset recycled a Const-wrapped matrix")
	}
}

// TestTapeReuseSteadyStateAllocs: after a warm-up window, a reused tape
// should run its forward+backward pass without growing the heap
// meaningfully (the point of the arena).
func TestTapeReuseSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := Randn(64, 32, 1, rng)
	w := Randn(32, 16, 0.3, rng)
	b := Randn(1, 16, 0.3, rng)
	tp := NewTape()
	step := func() {
		out := tp.Affine(tp.Const(x), tp.Var(w), tp.Var(b), ActSigmoid)
		tp.Backward(tp.MeanAll(tp.Mul(out, out)))
		tp.Reset()
	}
	step() // warm the arena and the node free list
	avg := testing.AllocsPerRun(20, step)
	// Backward closures and variadic bookkeeping cost a few small objects
	// per op; matrix buffers do not. An unpooled step allocates ~35 objects
	// including every full-size intermediate, so 20 catches any matrix
	// sneaking back onto the heap.
	if avg > 20 {
		t.Fatalf("steady-state tape step allocates %.1f objects/run, want <= 20", avg)
	}
}

// TestParallelSpMMMatchesDense: the row-partitioned MulDense path of a
// pattern and of its T (forced by a large nnz·cols product) must agree
// with the dense
// reference product, and concurrent callers sharing one CSR — as metrics
// requests share a reference sequence — must be race-free. Run with
// -race in CI.
func TestParallelSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, cols, nnz = 300, 24, 6000 // nnz*cols well above spmmParallelFlops
	ri := make([]int, nnz)
	ci := make([]int, nnz)
	for k := range ri {
		ri[k] = rng.Intn(n)
		ci[k] = rng.Intn(n)
	}
	s := NewCSR(n, n, ri, ci)
	d := Randn(n, cols, 1, rng)
	wantMul := MatMul(s.Dense(), d)
	wantMulT := MatMul(s.Dense().Transpose(), d)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				got := s.MulDense(d)
				if !got.Equal(wantMul, 1e-9) {
					errs <- "MulDense disagrees with dense product"
				}
				Put(got)
				gotT := s.T.MulDense(d)
				if !gotT.Equal(wantMulT, 1e-9) {
					errs <- "T.MulDense disagrees with dense product"
				}
				Put(gotT)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestTMulDenseIntoAccumulates: the SpMM backward adds T's product into
// an existing gradient buffer; the Into form must accumulate, not
// overwrite.
func TestTMulDenseIntoAccumulates(t *testing.T) {
	s := NewCSR(3, 3, []int{0, 1, 2}, []int{1, 2, 0})
	d := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	out := Full(3, 2, 10)
	s.T.MulDenseInto(out, d)
	want := MatMul(s.Dense().Transpose(), d)
	for i := range want.Data {
		want.Data[i] += 10
	}
	if !out.Equal(want, 1e-12) {
		t.Fatalf("T.MulDenseInto = %v, want %v", out, want)
	}
}

// Fused-op gradient checks, driven through the same finite-difference
// harness as the rest of the ops.
func TestGradAffine(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(4, 3, 41), rnd(3, 2, 42), rnd(1, 2, 43)}, func(tp *Tape, v []*Node) *Node {
		return tp.MeanAll(tp.Affine(v[0], v[1], v[2], ActTanh))
	})
	checkGrad(t, []*Matrix{rnd(4, 3, 44), rnd(3, 2, 45), rnd(1, 2, 46)}, func(tp *Tape, v []*Node) *Node {
		return tp.MeanAll(tp.Mul(tp.Affine(v[0], v[1], v[2], ActSigmoid), tp.Affine(v[0], v[1], v[2], ActLeakyReLU)))
	})
}

func TestGradAffine2(t *testing.T) {
	params := []*Matrix{rnd(4, 3, 47), rnd(3, 2, 48), rnd(4, 5, 49), rnd(5, 2, 50), rnd(1, 2, 51)}
	checkGrad(t, params, func(tp *Tape, v []*Node) *Node {
		return tp.MeanAll(tp.Affine2(v[0], v[1], v[2], v[3], v[4], ActSigmoid))
	})
}

func TestGradLerp(t *testing.T) {
	z := rnd(3, 4, 54).Apply(sigmoid) // gate values in (0,1)
	checkGrad(t, []*Matrix{rnd(3, 4, 52), rnd(3, 4, 53), z}, func(tp *Tape, v []*Node) *Node {
		return tp.MeanAll(tp.Lerp(v[0], v[1], v[2]))
	})
}

// TestAffineMatchesUnfused: the fused node must be numerically identical
// to the MatMul → AddRowVec → activation chain it replaces.
func TestAffineMatchesUnfused(t *testing.T) {
	x, w, b := rnd(5, 4, 55), rnd(4, 3, 56), rnd(1, 3, 57)
	fused := NewTape()
	f := fused.Affine(fused.Const(x), fused.Const(w), fused.Const(b), ActTanh)
	plain := NewTape()
	p := plain.Tanh(plain.AddRowVec(plain.MatMul(plain.Const(x), plain.Const(w)), plain.Const(b)))
	if !f.Value.Equal(p.Value, 0) {
		t.Fatal("fused Affine disagrees with the unfused chain")
	}
}

// TestOpPanicLeavesArenaBalanced hands ops operands whose shapes or
// indices do not fit. Every case must panic, and must do so before it
// takes a buffer from the arena: a Get ahead of the check leaks that
// buffer, since the panic unwinds past the Tape.op that would have owned
// it.
func TestOpPanicLeavesArenaBalanced(t *testing.T) {
	csr := testCSR() // 4×3
	sq := NewCSR(3, 3, []int{0, 1}, []int{1, 2})
	noT := &CSR{Rows: sq.Rows, Cols: sq.Cols, RowPtr: sq.RowPtr, ColIdx: sq.ColIdx}
	tp := NewTape() // every case panics before its op records anything
	c := func(r, cols int) *Node { return tp.Const(testMat(r, cols, int64(10*r+cols))) }
	v := func(r, cols int) *Node { return tp.Var(testMat(r, cols, int64(10*r+cols))) }
	cases := []struct {
		name string
		run  func()
	}{
		{"Add", func() { tp.Add(c(3, 4), c(4, 3)) }},
		{"Sub", func() { tp.Sub(c(3, 4), c(3, 5)) }},
		{"Mul", func() { tp.Mul(c(3, 4), c(2, 4)) }},
		{"AddRowVec", func() { tp.AddRowVec(c(3, 4), c(1, 3)) }},
		{"MulColVec", func() { tp.MulColVec(c(3, 4), c(4, 1)) }},
		{"MatMul", func() { tp.MatMul(c(3, 4), c(3, 4)) }},
		{"SpMM", func() { tp.SpMM(csr, c(4, 2)) }},
		{"GIN/first", func() { tp.GIN(c(3, 2), c(1, 1), csr) }},
		{"GIN/second", func() { tp.GIN(c(3, 2), c(1, 1), sq, csr) }},
		{"SpMM/noT", func() { tp.SpMM(noT, v(3, 2)) }},
		{"GIN/noT", func() { tp.GIN(v(3, 2), c(1, 1), sq, noT) }},
		{"Affine/product", func() { tp.Affine(c(3, 4), c(5, 2), c(1, 2), ActLeakyReLU) }},
		{"Affine/bias", func() { tp.Affine(c(3, 4), c(4, 2), c(1, 3), ActIdent) }},
		{"Affine2/x", func() {
			tp.Affine2(c(3, 4), c(5, 2), c(3, 5), c(5, 2), c(1, 2), ActSigmoid)
		}},
		{"Affine2/h", func() {
			tp.Affine2(c(3, 4), c(4, 2), c(3, 4), c(5, 2), c(1, 2), ActSigmoid)
		}},
		{"Affine2/rows", func() {
			tp.Affine2(c(3, 4), c(4, 2), c(2, 5), c(5, 2), c(1, 2), ActTanh)
		}},
		{"AffineSum/block", func() { // rows [2, 6) of a 5-row weight
			tp.AffineSum(c(1, 2), ActIdent, Term{X: c(3, 1), W: c(5, 2)}, Term{X: c(3, 4), W: c(5, 2), Off: 2})
		}},
		{"AffineSum/rows", func() {
			tp.AffineSum(c(1, 2), ActTanh, Term{X: c(3, 4), W: c(6, 2)}, Term{X: c(2, 2), W: c(6, 2), Off: 4})
		}},
		{"Lerp", func() { tp.Lerp(c(3, 4), c(3, 4), c(3, 3)) }},
		{"ConcatCols", func() { tp.ConcatCols(c(3, 4), c(2, 4)) }},
		{"SliceCols", func() { tp.SliceCols(c(3, 4), 2, 5) }},
		{"GatherRows", func() { tp.GatherRows(c(3, 2), []int{0, 3}) }},
		{"ScatterAddRows", func() { tp.ScatterAddRows(c(2, 2), []int{0, 4}, 4) }},
		{"PairDiffT/src", func() {
			tp.PairDiffT(c(2, 3), c(1, 2), 0, []int{0, 3}, []int{1, 1}, ActLeakyReLU)
		}},
		{"PairDiffT/dst", func() {
			tp.PairDiffT(c(2, 3), c(1, 2), 0, []int{0, 1}, []int{1, -1}, ActIdent)
		}},
		{"PairMLP/src", func() {
			tp.PairMLP(c(3, 2), c(1, 2), c(2, 3), c(1, 3), 0, []int{0, 3}, []int{1, 1})
		}},
		{"PairMLP/dst", func() {
			tp.PairMLP(c(3, 2), c(1, 2), c(2, 3), c(1, 3), 0, []int{0, 1}, []int{1, -1})
		}},
		{"PairMLP/columns", func() {
			tp.PairMLP(c(3, 4), c(1, 2), c(2, 3), c(1, 3), 3, []int{0, 1}, []int{1, 2})
		}},
		{"SegmentSoftmax", func() { tp.SegmentSoftmax(c(3, 1), []int{0, 1, 2}, 2) }},
		{"SegmentSoftmax/negative", func() { tp.SegmentSoftmax(c(3, 1), []int{0, -1, 1}, 2) }},
		{"GaussianKL", func() { tp.GaussianKL(c(3, 2), c(3, 2), c(2, 3), c(3, 2)) }},
		{"SCELoss", func() { tp.SCELoss(c(3, 2), testMat(3, 1, 1), 2) }},
		{"BCEWithLogits", func() { tp.BCEWithLogits(c(3, 2), testMat(2, 3, 1)) }},
		{"MSELoss", func() { tp.MSELoss(c(3, 2), testMat(3, 1, 1)) }},
		{"CSR.MulDense", func() { csr.MulDense(testMat(4, 2, 1)) }},
		{"MatMulMatrix", func() { MatMul(testMat(3, 4, 1), testMat(3, 4, 2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := ReadPoolStats()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("mismatched operands did not panic")
					}
				}()
				tc.run()
			}()
			after := ReadPoolStats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Errorf("arena gets %d, puts %d across the panic", gets, puts)
			}
		})
	}
}

// poison fills a matrix's whole buffer, past its length to its capacity,
// with NaN and returns it to the arena.
func poison(m *Matrix) {
	buf := m.Data[:cap(m.Data)]
	for i := range buf {
		buf[i] = math.NaN()
	}
	Put(m)
}

// TestReleaseFreePoisonedBuffers: a buffer its last owner filled with NaN
// and the arena then released comes back zeroed from Get, and GemmNT's
// unzeroed transpose scratch drawn from a released list is overwritten
// whole. A released buffer is mixed: its whole pages read as zeros, the
// partial pages at its ends keep the NaNs, and a buffer under a page keeps
// them all. The shapes cover each case.
func TestReleaseFreePoisonedBuffers(t *testing.T) {
	for _, sh := range [][2]int{{13, 7}, {64, 64}, {300, 301}} {
		poison(Get(sh[0], sh[1]))
		ReleaseFree()
		if s := ReadPoolStats(); runtime.GOOS == "linux" && s.ReleasedBytes != s.RetainedBytes {
			t.Fatalf("after ReleaseFree %d of %d retained bytes are released, want all", s.ReleasedBytes, s.RetainedBytes)
		}
		m := Get(sh[0], sh[1])
		for i, v := range m.Data {
			if v != 0 {
				t.Fatalf("%dx%d from a released list: entry %d = %v, want 0", sh[0], sh[1], i, v)
			}
		}
		Put(m)
	}
	nt := gemmVariants[2]
	for _, bk := range diffBackends() {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, sh := range [][3]int{{94, 16, 16}, {945, 16, 28}, {2, 590, 16}, {2, 6150, 16}, {17, 13, 30}} {
				m, k, n := sh[0], sh[1], sh[2]
				a, b := New(m, k), New(n, k)
				fillMixed(a.Data, rng)
				fillMixed(b.Data, rng)
				want, got := New(m, n), New(m, n)
				fillMixed(want.Data, rng)
				copy(got.Data, want.Data)
				nt.call(pureBackend{}, want, a, b)
				poison(Get(k, n))
				ReleaseFree()
				nt.call(bk, got, a, b)
				if i, ok := sameBits(want.Data, got.Data); !ok {
					t.Fatalf("GemmNT %dx%dx%d on released poisoned scratch: out[%d] = %v, reference %v",
						m, k, n, i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestReleaseFreeKeepsArenaBalanced: a release moves buffers from a
// bucket's resident list to its released list and changes nothing else.
// Retained and live bytes hold across it, the released buffers are handed
// out again before the arena allocates, and gets and puts balance.
func TestReleaseFreeKeepsArenaBalanced(t *testing.T) {
	shapes := [][2]int{{13, 7}, {64, 64}, {300, 301}}
	const per = 6
	before := ReadPoolStats()
	var ms []*Matrix
	for _, sh := range shapes {
		for i := 0; i < per; i++ {
			ms = append(ms, Get(sh[0], sh[1]))
		}
	}
	for _, m := range ms {
		Put(m)
	}
	put := ReadPoolStats()
	ReleaseFree()
	rel := ReadPoolStats()
	if rel.RetainedBytes != put.RetainedBytes || rel.LiveBytes != put.LiveBytes {
		t.Fatalf("release moved retained %d → %d, live %d → %d; want both unchanged",
			put.RetainedBytes, rel.RetainedBytes, put.LiveBytes, rel.LiveBytes)
	}
	if runtime.GOOS == "linux" {
		if rel.ReleasedBytes != rel.RetainedBytes || rel.Releases-put.Releases < int64(len(ms)) {
			t.Fatalf("released %d of %d retained bytes in %d buffers; want all, at least %d buffers",
				rel.ReleasedBytes, rel.RetainedBytes, rel.Releases-put.Releases, len(ms))
		}
	}
	ms = ms[:0]
	for _, sh := range shapes {
		for i := 0; i < per; i++ {
			ms = append(ms, Get(sh[0], sh[1]))
		}
	}
	got := ReadPoolStats()
	if hits := got.Hits - rel.Hits; hits != int64(len(ms)) {
		t.Fatalf("%d of %d gets after the release reused a buffer, want all", hits, len(ms))
	}
	if runtime.GOOS == "linux" && got.ReleasedBytes >= rel.ReleasedBytes {
		t.Fatalf("released bytes %d → %d across the gets, want them reused", rel.ReleasedBytes, got.ReleasedBytes)
	}
	for _, m := range ms {
		Put(m)
	}
	after := ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("%d gets vs %d puts across the release", gets, puts)
	}
	if after.LiveBytes != before.LiveBytes || after.RetainedBytes != put.RetainedBytes {
		t.Fatalf("live %d → %d, retained %d → %d; want both back", before.LiveBytes, after.LiveBytes, put.RetainedBytes, after.RetainedBytes)
	}
}
