package tensor

import "testing"

// fuzzCSR is the fixed 3×3 sparse operand for fuzzed SpMM ops.
func fuzzCSR() *CSR {
	return NewCSR(3, 3, []int{0, 0, 1, 2, 2}, []int{0, 2, 1, 0, 2})
}

// fuzzSel is a program byte's op selector: the low nibble, in a second
// table of sixteen when the top bit is set. Bytes below 0x80 — every
// committed corpus entry older than the second table — select what they
// always did; a selector without a case in applyOp records nothing.
func fuzzSel(op byte) int { return int(op&0x0f) | int(op>>7)<<4 }

// fuzzBuild interprets data as a stack-machine program over 3×3 matrices
// and records it on tp. fuzzSel of each byte selects the op, the high
// nibble parameterises it (scale factor, activation). The interpretation
// is fully deterministic, so the same bytes replayed on the reference and
// a default tape must produce bit-identical results.
func fuzzBuild(tp *Tape, data []byte) SchedProbe {
	a := tp.Var(testMat(3, 3, 201))
	b := tp.Var(testMat(3, 3, 202))
	w := tp.Var(testMat(3, 3, 203))
	bias := tp.Var(testMat(1, 3, 204))
	leaves := []*Node{a, b, w, bias}
	stack := []*Node{a, b}
	pop := func() *Node {
		n := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return n
	}
	push := func(n *Node) {
		if len(stack) < 8 {
			stack = append(stack, n)
		}
	}
	// Pairs over the three rows (nodes) of a 3×3 operand: node 0 is src twice,
	// node 1 sits on both sides, the last pair is a self pair.
	pairSrc, pairDst := []int{0, 0, 1}, []int{1, 2, 1}
	gatSrc, gatDst := withSelfLoops(pairSrc, pairDst, 3)

	applyOp := func(op byte) {
		hi := float64(op>>4)/8 - 0.9 // deterministic parameter in [-0.9, 0.975]
		switch fuzzSel(op) {
		case 0:
			push(tp.Add(pop(), pop()))
		case 1:
			push(tp.Sub(pop(), pop()))
		case 2:
			push(tp.Mul(pop(), pop()))
		case 3:
			push(tp.MatMul(pop(), pop()))
		case 4:
			push(tp.Scale(pop(), hi))
		case 5:
			push(tp.AddScalar(pop(), hi))
		case 6:
			push(tp.Sigmoid(pop()))
		case 7:
			push(tp.Tanh(pop()))
		case 8:
			push(tp.ReLU(pop()))
		case 9:
			push(tp.LeakyReLU(pop()))
		case 10:
			push(tp.Affine(pop(), w, bias, fusableActs[int(op>>4)%len(fusableActs)].act))
		case 11:
			push(tp.SpMM(fuzzCSR(), pop()))
		case 12:
			z := tp.Sigmoid(pop())
			y := pop()
			push(tp.Lerp(pop(), y, z))
		case 13:
			push(stack[len(stack)-1]) // dup: aliased consumption
		case 14:
			// Opened a rematerialization segment over the next ops until
			// segments were deleted; it records nothing, so the committed
			// corpus still parses.
		case 15:
			push(tp.Exp(tp.Scale(pop(), 0.1)))
		case 16:
			// p and W₂ both off the stack: N=3 nodes, d_h=3, K=3.
			push(tp.PairMLP(pop(), bias, pop(), bias, 0, pairSrc, pairDst))
		case 17:
			// wh off the stack: N=3 nodes, d_h=3, the pairs plus
			// self-loops, so node 0's only in-edge is its own. The
			// attention weights are columns of w, the biases entries of
			// bias.
			push(tp.GAT(pop(), tp.SliceCols(w, 0, 1), tp.SliceCols(bias, 0, 1), tp.SliceCols(w, 1, 2),
				tp.SliceCols(bias, 1, 2), gatSrc, gatDst, 3))
		}
	}

	for _, op := range data {
		applyOp(op)
	}

	loss := tp.SumAll(stack[0])
	for _, n := range stack[1:] {
		loss = tp.Add(loss, tp.SumAll(n))
	}
	outs := append([]*Node(nil), stack...)
	return SchedProbe{Loss: loss, Outputs: outs, Leaves: leaves}
}

// FuzzTapeSchedule feeds random op DAGs through the differential harness:
// the default tape's lifetime release must produce bit-identical outputs
// and leaf gradients to the reference tape's record-order executor, with
// no use-after-release and an exactly balanced arena (the harness checks
// get/put deltas and the live-byte ledger).
func FuzzTapeSchedule(f *testing.F) {
	seeds := []string{
		"0123456789:;<=>?",                 // every opcode of the first table once
		"33773377",                         // MatMul/Tanh chains
		">012>345>678",                     // once checkpoint segments, now inert selector 14 between runs
		"=3=3=3",                           // dup + self-MatMul aliasing
		"J6:7J6:7",                         // Affine/activation mixes
		"N01N01N01",                        // once single-op segments, now Add/Sub runs
		"<<<???",                           // Lerp pressure then Exp chain
		"4455445544",                       // elementwise chains (Scale/AddScalar)
		";8;8;8",                           // SpMM/ReLU chains
		"\x0e\x0e\x0e\x0e",                 // inert selectors only: the leaves alone
		"?N3?N3",                           // Exp then MatMul, an inert selector between
		"0123456789:;<=>?@ABCDEFGHIJKLMNO", // two full opcode sweeps
		"\xc0\r7\x02>\xa0\xb0\r\x00",       // PairMLP consumed twice, then two more and the second consumed twice
		"\x80\r3\x90\x02\x81",              // PairMLP on itself through a MatMul, then Mul and a GAT
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		if err := AssertSchedEquiv(func(tp *Tape) SchedProbe {
			return fuzzBuild(tp, data)
		}); err != nil {
			t.Fatal(err)
		}
	})
}
