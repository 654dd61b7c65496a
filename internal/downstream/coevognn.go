// Package downstream implements the case-study pipeline of the paper's
// Section IV-E: forecasting the final graph snapshot with CoEvoGNN (Wang
// et al., TKDE 2021), decomposed into link prediction (F1) and node
// attribute prediction (RMSE), with optional data augmentation by a
// generator's synthetic sequence.
//
// The CoEvoGNN model here is the co-evolution predictor in its essential
// form: per-node states evolve through a GRU fed with neighbourhood
// aggregations of structure and attributes; a bilinear inner-product head
// scores links and a linear head predicts next-step attributes.
package downstream

import (
	"fmt"
	"math"
	"math/rand"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// Config tunes the predictor.
type Config struct {
	Hidden    int     // node state width (default 16)
	Epochs    int     // training epochs (default 30)
	LR        float64 // Adam learning rate (default 1e-2)
	NegPerPos int     // negative links sampled per positive (default 1)
	Seed      int64
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.NegPerPos == 0 {
		c.NegPerPos = 1
	}
	return c
}

// Model is a CoEvoGNN-style dynamic attributed graph predictor.
type Model struct {
	cfg Config
	rng *rand.Rand

	inProj   *nn.Linear  // [X || deg feats] -> hidden
	gru      *nn.GRUCell // evolves node states across snapshots
	linkSrc  *nn.Linear  // hidden -> hidden (bilinear link head, source side)
	linkDst  *nn.Linear  // hidden -> hidden (destination side)
	attrHead *nn.Linear  // hidden -> F
	adam     *nn.Adam

	n, f int
}

// NewModel creates an untrained predictor for graphs with n nodes and f
// attribute dimensions.
func NewModel(cfg Config, n, f int) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, rng: rng, n: n, f: f}
	m.inProj = nn.NewLinear("coevo.in", f+2, cfg.Hidden, rng)
	m.gru = nn.NewGRUCell("coevo.gru", cfg.Hidden, cfg.Hidden, rng)
	m.linkSrc = nn.NewLinear("coevo.lsrc", cfg.Hidden, cfg.Hidden, rng)
	m.linkDst = nn.NewLinear("coevo.ldst", cfg.Hidden, cfg.Hidden, rng)
	m.attrHead = nn.NewLinear("coevo.attr", cfg.Hidden, max(f, 1), rng)
	m.adam = nn.NewAdam(nn.CollectParams(m.inProj, m.gru, m.linkSrc, m.linkDst, m.attrHead), cfg.LR)
	return m
}

// features assembles the per-snapshot input: attributes plus normalised
// in/out degrees.
func features(s *dyngraph.Snapshot, f int) *tensor.Matrix {
	out := tensor.New(s.N, f+2)
	maxDeg := 1.0
	for v := 0; v < s.N; v++ {
		if d := float64(s.InDegree(v) + s.OutDegree(v)); d > maxDeg {
			maxDeg = d
		}
	}
	for v := 0; v < s.N; v++ {
		row := out.Row(v)
		if s.X != nil && f > 0 {
			copy(row[:f], s.X.Row(v))
		}
		row[f] = float64(s.InDegree(v)) / maxDeg
		row[f+1] = float64(s.OutDegree(v)) / maxDeg
	}
	return out
}

// rollStates runs the recurrent encoder over a prefix of snapshots on the
// tape, aggregating each snapshot's features over its out-neighbourhood.
func (m *Model) rollStates(c *nn.Ctx, snaps []*dyngraph.Snapshot) *tensor.Node {
	t := c.Tape
	h := t.Const(tensor.New(m.n, m.cfg.Hidden))
	for _, s := range snaps {
		x := t.Const(features(s, m.f))
		proj := t.Tanh(m.inProj.Apply(c, x))
		// neighbourhood aggregation: self + mean of out-neighbour features
		agg := t.Add(proj, t.SpMM(s.AdjCSR(), proj))
		h = m.gru.Step(c, agg, h)
	}
	return h
}

// trainSample holds the supervised pairs for one target snapshot.
type trainSample struct {
	prefix []*dyngraph.Snapshot
	target *dyngraph.Snapshot
}

// Fit trains the predictor on every (prefix → next snapshot) pair of the
// provided sequences. Augmented training simply passes extra sequences.
func (m *Model) Fit(seqs ...*dyngraph.Sequence) error {
	var samples []trainSample
	for _, g := range seqs {
		if g.N != m.n || g.F != m.f {
			return fmt.Errorf("downstream: sequence shape N=%d F=%d, model wants N=%d F=%d",
				g.N, g.F, m.n, m.f)
		}
		for t := 1; t < g.T(); t++ {
			samples = append(samples, trainSample{prefix: g.Snapshots[:t], target: g.At(t)})
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("downstream: no training samples (need sequences with T >= 2)")
	}
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		sample := samples[m.rng.Intn(len(samples))]
		tape := tensor.NewTape()
		c := nn.NewTrainCtx(tape, m.adam)
		h := m.rollStates(c, sample.prefix)

		// Link loss on positive edges + sampled negatives.
		src, dst, targets := m.linkPairs(sample.target)
		loss := tape.Const(tensor.New(1, 1))
		if len(src) > 0 {
			logits := m.linkLogits(c, h, src, dst)
			loss = tape.Add(loss, tape.BCEWithLogits(logits, targets))
		}
		if m.f > 0 {
			pred := m.attrHead.Apply(c, h)
			loss = tape.Add(loss, tape.MSELoss(pred, sample.target.X))
		}
		tape.Backward(loss)
		c.Flush()
		m.adam.Step()
	}
	return nil
}

// linkPairs samples positives and negatives from the target snapshot.
func (m *Model) linkPairs(s *dyngraph.Snapshot) (src, dst []int, targets *tensor.Matrix) {
	esrc, edst := s.EdgeLists()
	src = append(src, esrc...)
	dst = append(dst, edst...)
	for k := 0; k < len(esrc)*m.cfg.NegPerPos; k++ {
		u, v := m.rng.Intn(s.N), m.rng.Intn(s.N)
		if u == v || s.HasEdge(u, v) {
			continue
		}
		src = append(src, u)
		dst = append(dst, v)
	}
	targets = tensor.New(len(src), 1)
	for k := range esrc {
		targets.Data[k] = 1
	}
	return src, dst, targets
}

// linkLogits scores candidate links with the bilinear head.
func (m *Model) linkLogits(c *nn.Ctx, h *tensor.Node, src, dst []int) *tensor.Node {
	t := c.Tape
	hs := m.linkSrc.Apply(c, t.GatherRows(h, src))
	hd := m.linkDst.Apply(c, t.GatherRows(h, dst))
	return t.SumRows(t.Mul(hs, hd))
}

// Result is the case-study outcome for one configuration.
type Result struct {
	LinkF1   float64 // link prediction F1 on the final snapshot
	AttrRMSE float64 // attribute prediction RMSE on the final snapshot
}

// Evaluate predicts the final snapshot of eval given its preceding
// snapshots and scores link F1 and attribute RMSE (Fig. 10 protocol).
func (m *Model) Evaluate(eval *dyngraph.Sequence) (Result, error) {
	if eval.T() < 2 {
		return Result{}, fmt.Errorf("downstream: evaluation needs T >= 2")
	}
	if eval.N != m.n || eval.F != m.f {
		return Result{}, fmt.Errorf("downstream: evaluation shape mismatch")
	}
	target := eval.At(eval.T() - 1)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	h := m.rollStates(c, eval.Snapshots[:eval.T()-1])

	// Link prediction: score positives and an equal number of negatives;
	// threshold at 0.5.
	src, dst, targets := m.linkPairs(target)
	var tp, fp, fn float64
	if len(src) > 0 {
		logits := m.linkLogits(c, h, src, dst)
		for k := range src {
			pred := tensor.Sigmoid(logits.Value.Data[k]) > 0.5
			pos := targets.Data[k] > 0.5
			switch {
			case pred && pos:
				tp++
			case pred && !pos:
				fp++
			case !pred && pos:
				fn++
			}
		}
	}
	f1 := 0.0
	if 2*tp+fp+fn > 0 {
		f1 = 2 * tp / (2*tp + fp + fn)
	}

	rmse := 0.0
	if m.f > 0 {
		pred := m.attrHead.Apply(c, h)
		sum := 0.0
		for i, v := range pred.Value.Data {
			d := v - target.X.Data[i]
			sum += d * d
		}
		rmse = math.Sqrt(sum / float64(len(pred.Value.Data)))
	}
	return Result{LinkF1: f1, AttrRMSE: rmse}, nil
}

// RunCaseStudy reproduces one bar group of Fig. 10: train CoEvoGNN on the
// original sequence alone ("No Augmentation") and, for each synthetic
// sequence, again with that sequence appended, then evaluate every model
// on the original's final snapshot. augmented[i] is synthetic[i]'s arm;
// the baseline is trained once, however many arms there are.
func RunCaseStudy(orig *dyngraph.Sequence, cfg Config, synthetic ...*dyngraph.Sequence) (base Result, augmented []Result, err error) {
	mBase := NewModel(cfg, orig.N, orig.F)
	if err = mBase.Fit(orig); err != nil {
		return
	}
	if base, err = mBase.Evaluate(orig); err != nil {
		return
	}
	cfgAug := cfg
	cfgAug.Seed = cfg.Seed + 1
	for _, s := range synthetic {
		mAug := NewModel(cfgAug, orig.N, orig.F)
		if err = mAug.Fit(orig, s); err != nil {
			return
		}
		var r Result
		if r, err = mAug.Evaluate(orig); err != nil {
			return
		}
		augmented = append(augmented, r)
	}
	return
}
