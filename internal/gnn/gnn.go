// Package gnn implements the graph neural layers of the paper: the
// bidirectional message-passing encoder of Eq. (5)-(7) (two directional GIN
// streams merged by a shared aggregation MLP with jump connections) and the
// graph attention layer of Eq. (12) used by the attribute decoder.
package gnn

import (
	"fmt"
	"math/rand"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// BiFlowConfig configures the bi-flow encoder.
type BiFlowConfig struct {
	InDim     int  // attribute dimension F (0 allowed: degree features are used)
	Hidden    int  // width of hop-level node states
	OutDim    int  // dε, dimensionality of ε(v)
	Layers    int  // L, number of message-passing layers
	MLPLayers int  // Lm, depth of the per-stream MLPs (>=1)
	BiFlow    bool // false collapses to a single undirected stream (ablation)
}

// BiFlowEncoder is the snapshot encoder ε. Each layer runs two GIN streams
// (in-flow and out-flow), concatenates them and applies a weight-shared
// aggregation MLP (Eq. 6). A jump connection pools all hop-level states
// into the final representation (Eq. 7).
type BiFlowEncoder struct {
	cfg    BiFlowConfig
	inProj *nn.Linear // input projection F (+2 degree feats) -> Hidden
	fIn    []*nn.MLP  // per-layer in-flow MLP f_in^(l)
	fOut   []*nn.MLP  // per-layer out-flow MLP f_out^(l)
	epsIn  []*nn.Param
	epsOut []*nn.Param
	fAgg   *nn.MLP // shared aggregation MLP (Eq. 6)
	fPool  *nn.MLP // jump-connection pooling MLP (Eq. 7)
}

// NewBiFlowEncoder constructs the encoder.
func NewBiFlowEncoder(name string, cfg BiFlowConfig, rng *rand.Rand) *BiFlowEncoder {
	if cfg.Layers < 1 {
		panic(fmt.Sprintf("gnn: encoder needs >=1 layer, got %d", cfg.Layers))
	}
	if cfg.MLPLayers < 1 {
		cfg.MLPLayers = 1
	}
	e := &BiFlowEncoder{cfg: cfg}
	// Raw input: attributes plus normalised in/out degree, so unattributed
	// graphs still carry structural signal.
	e.inProj = nn.NewLinear(name+".inproj", cfg.InDim+2, cfg.Hidden, rng)
	mlpSizes := func() []int {
		sizes := []int{cfg.Hidden}
		for i := 0; i < cfg.MLPLayers; i++ {
			sizes = append(sizes, cfg.Hidden)
		}
		return sizes
	}
	for l := 0; l < cfg.Layers; l++ {
		e.fIn = append(e.fIn, nn.NewMLP(fmt.Sprintf("%s.fin%d", name, l), mlpSizes(), tensor.ActLeakyReLU, rng))
		e.fOut = append(e.fOut, nn.NewMLP(fmt.Sprintf("%s.fout%d", name, l), mlpSizes(), tensor.ActLeakyReLU, rng))
		e.epsIn = append(e.epsIn, &nn.Param{Name: fmt.Sprintf("%s.epsin%d", name, l), Value: tensor.New(1, 1)})
		e.epsOut = append(e.epsOut, &nn.Param{Name: fmt.Sprintf("%s.epsout%d", name, l), Value: tensor.New(1, 1)})
	}
	e.fAgg = nn.NewMLP(name+".fagg", []int{2 * cfg.Hidden, cfg.Hidden}, tensor.ActLeakyReLU, rng)
	e.fPool = nn.NewMLP(name+".fpool", []int{cfg.Layers * cfg.Hidden, cfg.OutDim}, tensor.ActLeakyReLU, rng)
	return e
}

// Params implements nn.Module.
func (e *BiFlowEncoder) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, e.inProj.Params()...)
	for l := range e.fIn {
		ps = append(ps, e.fIn[l].Params()...)
		ps = append(ps, e.fOut[l].Params()...)
		ps = append(ps, e.epsIn[l], e.epsOut[l])
	}
	ps = append(ps, e.fAgg.Params()...)
	ps = append(ps, e.fPool.Params()...)
	return ps
}

// OutDim returns dε.
func (e *BiFlowEncoder) OutDim() int { return e.cfg.OutDim }

// inputFeatures assembles [X || inDeg/max || outDeg/max] as a constant.
// When directed is false (the uni-flow ablation) both degree slots carry
// the direction-free total degree so the whole encoder is orientation
// invariant.
func inputFeatures(s *dyngraph.Snapshot, f int, directed bool) *tensor.Matrix {
	n := s.N
	feat := tensor.Get(n, f+2)
	maxDeg := 1.0
	for v := 0; v < n; v++ {
		if d := float64(s.InDegree(v) + s.OutDegree(v)); d > maxDeg {
			maxDeg = d
		}
	}
	for v := 0; v < n; v++ {
		row := feat.Row(v)
		if s.X != nil && f > 0 {
			copy(row[:f], s.X.Row(v))
		}
		if directed {
			row[f] = float64(s.InDegree(v)) / maxDeg
			row[f+1] = float64(s.OutDegree(v)) / maxDeg
		} else {
			d := float64(s.InDegree(v)+s.OutDegree(v)) / (2 * maxDeg)
			row[f] = d
			row[f+1] = d
		}
	}
	return feat
}

// Encode runs the bi-flow encoder over a snapshot on the tape, returning
// the N×OutDim node representations ε(v, t). On an eval tape each layer
// returns its streams' intermediates to the arena once it has merged
// them, keeping only the hop-level states (Tape.ReleaseSince).
func (e *BiFlowEncoder) Encode(c *nn.Ctx, s *dyngraph.Snapshot) *tensor.Node {
	t := c.Tape
	adj := s.AdjCSR()   // A·H sums out-neighbour states (cached on the snapshot)
	adjT := s.AdjTCSR() // Aᵀ·H sums in-neighbour states
	mark := t.Len()
	h := e.inProj.ApplyAct(c, tensor.ActLeakyReLU, t.Owned(inputFeatures(s, e.cfg.InDim, e.cfg.BiFlow)))

	var hops []*tensor.Node
	for l := 0; l < e.cfg.Layers; l++ {
		var merged *tensor.Node
		if e.cfg.BiFlow {
			// Eq. (5): two directional GIN streams.
			inH := e.fIn[l].Apply(c, t.GIN(h, c.Var(e.epsIn[l]), adjT))
			outH := e.fOut[l].Apply(c, t.GIN(h, c.Var(e.epsOut[l]), adj))
			// Eq. (6): shared aggregation over the concatenated streams,
			// each read against its half of the weight in place.
			merged = e.fAgg.Apply(c, inH, outH)
		} else {
			// Ablation: single undirected stream (in+out neighbourhoods merged).
			inH := e.fIn[l].Apply(c, t.GIN(h, c.Var(e.epsIn[l]), adj, adjT))
			merged = e.fAgg.Apply(c, inH, inH)
		}
		h = merged
		hops = append(hops, h)
		t.ReleaseSince(mark, hops...)
	}
	// Eq. (7): jump connection over hop-level states.
	return e.fPool.Apply(c, hops...)
}

// EncodeValue runs Encode on a throwaway eval tape and returns a pooled
// copy of the representations. It is the entry point of the benchmark's
// gnn.biflow_forward_us probe; nothing else outside tests calls it.
func (e *BiFlowEncoder) EncodeValue(s *dyngraph.Snapshot) *tensor.Matrix {
	tp := tensor.NewTape()
	defer tp.Reset()
	out := tensor.Get(s.N, e.cfg.OutDim)
	copy(out.Data, e.Encode(nn.NewEvalCtx(tp), s).Value.Data)
	return out
}

// GAT is a single-head graph attention layer (Veličković et al.), used by
// the attribute decoder to message-pass over the freshly generated topology
// (Eq. 12). Self-loops are always included so isolated nodes keep a state.
type GAT struct {
	W       *nn.Linear // in -> out
	attnSrc *nn.Linear // out -> 1
	attnDst *nn.Linear // out -> 1
}

// NewGAT creates the attention layer.
func NewGAT(name string, in, out int, rng *rand.Rand) *GAT {
	return &GAT{
		W:       nn.NewLinear(name+".W", in, out, rng),
		attnSrc: nn.NewLinear(name+".asrc", out, 1, rng),
		attnDst: nn.NewLinear(name+".adst", out, 1, rng),
	}
}

// Params implements nn.Module.
func (g *GAT) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, g.W.Params()...)
	ps = append(ps, g.attnSrc.Params()...)
	ps = append(ps, g.attnDst.Params()...)
	return ps
}

// Apply runs attention aggregation of states over the directed edges
// (src[k] → dst[k]); each node also attends to itself. It records the W
// projection and then one tensor.Tape.GAT node, which scores the edges
// with the two attention layers without gathering their rows. The
// self-loops are appended to src and dst: into their spare capacity when
// each has room for n more indices, so a caller that reuses its buffers
// (and reads nothing past their length) allocates no index lists here. On
// an eval tape the layer's intermediates go back to the arena before it
// returns.
func (g *GAT) Apply(c *nn.Ctx, states *tensor.Node, src, dst []int, n int) *tensor.Node {
	t := c.Tape
	mark := t.Len()
	wh := g.W.Apply(c, states) // N×out
	es := appendSelfLoops(src, n)
	ed := appendSelfLoops(dst, n)
	out := t.GAT(wh, c.Var(g.attnSrc.W), c.Var(g.attnSrc.B), c.Var(g.attnDst.W), c.Var(g.attnDst.B), es, ed, n)
	t.ReleaseSince(mark, out)
	return out
}

// appendSelfLoops appends 0, 1, …, n-1 to idx, growing it to exactly
// len(idx)+n when it lacks the room.
func appendSelfLoops(idx []int, n int) []int {
	if cap(idx)-len(idx) < n {
		idx = append(make([]int, 0, len(idx)+n), idx...)
	}
	for v := 0; v < n; v++ {
		idx = append(idx, v)
	}
	return idx
}
