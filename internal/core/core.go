// Package core implements VRDAG, the paper's contribution: a variational
// recurrent generator for dynamic attributed directed graphs.
//
// The model follows Section III of the paper:
//
//   - a bi-flow GNN encoder ε preserves directed structure and attributes
//     of each snapshot (Eq. 5-7, package gnn);
//   - a learnable prior p_ϕ(Z_t|H_{t-1}) and posterior q_ψ(Z_t|ε(G_t),
//     H_{t-1}) sample per-node latent variables (Eq. 3-4, 8-9);
//   - an attributed graph generator decodes a snapshot from S_t =
//     [Z_t‖H_{t-1}]: a MixBernoulli sampler for directed topology (Eq. 11)
//     followed by a GAT-based attribute decoder (Eq. 12);
//   - a GRU recurrence updater folds ε(G_t), Z_t and a Time2Vec embedding
//     of t into the hidden node states (Eq. 13);
//   - training maximises the step-wise ELBO (Eq. 14): KL(q‖p) + BCE
//     structure reconstruction + scaled-cosine attribute reconstruction.
package core

import (
	"fmt"
	"math/rand"

	"vrdag/internal/gnn"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// Config collects the model hyper-parameters. Zero values are replaced by
// the defaults documented on each field.
type Config struct {
	N int // number of nodes (required)
	F int // attribute dimensionality (0 = structure-only)

	HiddenDim  int // d_h, recurrent hidden state size (default 16)
	LatentDim  int // d_z, latent variable size (default 8)
	EncoderDim int // d_ε, snapshot-encoder output size (default 16)
	TimeDim    int // d_T, Time2Vec dimensionality (default 4)
	K          int // MixBernoulli component count (default 2)

	EncoderLayers int // L, bi-flow message-passing layers (default 2)
	MLPLayers     int // L_m, depth of per-stream GIN MLPs (default 1)

	Epochs     int     // training epochs over the sequence (default 30)
	LR         float64 // Adam learning rate (default 5e-3)
	NegSamples int     // Q, negative pairs per node per step (default 5)

	// NeighborSample caps each node's in/out neighbourhood to r sampled
	// neighbours during encoder message passing (the paper's r, §III-G);
	// 0 uses the full neighbourhood.
	NeighborSample int
	// TBPTT truncates backpropagation through time to windows of this
	// many snapshots (one optimizer step per window); 0 backpropagates
	// through the full sequence.
	TBPTT int

	// BiFlow toggles the bidirectional encoder (ablation switch; default
	// true). UseSCE selects the scaled cosine error over MSE for attribute
	// reconstruction (default true). UseTime2Vec toggles the temporal
	// embedding in the recurrence updater (default true).
	BiFlow      bool
	UseSCE      bool
	UseTime2Vec bool

	// CandidateCap bounds the per-node candidate set scored by the
	// MixBernoulli sampler during generation. 0 means exact O(N²) decoding;
	// large graphs default to 128 candidates per node (history plus an
	// activity-proportional random sample), keeping one-shot decoding
	// tractable on CPU.
	CandidateCap int

	// DegreeCalibration (default true) makes generation copy training
	// statistics at three seams (calibrate.go): each step replays the
	// previous snapshot's edges at the training persistence rate, scales
	// every Bernoulli mean by one λ so that the expected edge count is the
	// training count for that step, and replaces the decoded attributes
	// with draws of the training marginals, correlation and lag-1
	// autocorrelation, mixing the decoder in by its final-epoch R². Off,
	// generation reads the learned model alone (Algorithm 1). Forecast
	// encoding standardises attributes with the training moments either way.
	DegreeCalibration bool

	Seed int64
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.HiddenDim, 16)
	def(&c.LatentDim, 8)
	def(&c.EncoderDim, 16)
	def(&c.TimeDim, 4)
	def(&c.K, 2)
	def(&c.EncoderLayers, 2)
	def(&c.MLPLayers, 1)
	def(&c.Epochs, 30)
	deff(&c.LR, 5e-3)
	def(&c.NegSamples, 5)
	return c
}

// Training constants: the weight on the prior-matching (KL) loss, the α of
// the scaled cosine error (Eq. 18) and Adam's global-norm gradient clip.
const (
	klWeight = 1e-2
	sceAlpha = 2
	gradClip = 5
)

// check reports a defaulted configuration New cannot build a model from.
func (c Config) check() error {
	if c.N <= 0 {
		return fmt.Errorf("core: Config.N must be positive, got %d", c.N)
	}
	if c.F < 0 {
		return fmt.Errorf("core: Config.F must be non-negative, got %d", c.F)
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"HiddenDim", c.HiddenDim}, {"LatentDim", c.LatentDim}, {"EncoderDim", c.EncoderDim},
		{"TimeDim", c.TimeDim}, {"K", c.K}, {"EncoderLayers", c.EncoderLayers},
	} {
		if d.v < 1 {
			return fmt.Errorf("core: Config.%s must be positive, got %d", d.name, d.v)
		}
	}
	return nil
}

// DefaultConfig returns the configuration used throughout the experiments,
// with all ablation switches in their paper-default positions.
func DefaultConfig(n, f int) Config {
	c := Config{N: n, F: f, BiFlow: true, UseSCE: true, UseTime2Vec: true,
		DegreeCalibration: true, CandidateCap: 128}
	return c.withDefaults()
}

// Model is a trained (or trainable) VRDAG instance.
type Model struct {
	Cfg Config

	enc *gnn.BiFlowEncoder

	// Prior network (Eq. 4): W_prior with LeakyReLU, then W^µ, W^σ heads.
	priorHid, priorMu, priorSig *nn.Linear
	// Posterior network (Eq. 9) over [ε(v_t) ‖ h_{t-1}].
	postHid, postMu, postSig *nn.Linear

	// MixBernoulli sampler heads (Eq. 11), both R^{dz+dh} → R^K.
	fAlpha, fTheta *nn.MLP

	// Attribute decoder (Eq. 12).
	gat     *gnn.GAT
	attrMLP *nn.MLP

	// Recurrence updater (Section III-D).
	t2v *nn.Time2Vec
	gru *nn.GRUCell

	adam *nn.Adam
	rng  *rand.Rand
	// tape is reused across TBPTT windows and epochs; Tape.Reset returns
	// every op output and gradient buffer to the pooled tensor arena, so
	// steady-state training allocates almost nothing.
	tape *tensor.Tape
	// branchTapes[2i] records the encoder of a window's i-th step and
	// branchTapes[2i+1] its decoder losses (branch.go), reused the same
	// way.
	branchTapes []*tensor.Tape

	// cal is what generation copies from the training sequence
	// (calibrate.go); activeStats, how many nodes first turn active at
	// each training step, drives the node additions of DynamicNodes
	// (§III-H).
	cal         calibration
	activeStats []float64
	trained     bool

	// scratch keeps the decode buffers of the last finished generation
	// or forecast request (generate.go).
	scratch scratchPool
}

// New constructs an untrained VRDAG model.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, rng: rng}

	m.enc = gnn.NewBiFlowEncoder("enc", gnn.BiFlowConfig{
		InDim: cfg.F, Hidden: cfg.HiddenDim, OutDim: cfg.EncoderDim,
		Layers: cfg.EncoderLayers, MLPLayers: cfg.MLPLayers, BiFlow: cfg.BiFlow,
	}, rng)

	dh, dz, de := cfg.HiddenDim, cfg.LatentDim, cfg.EncoderDim
	m.priorHid = nn.NewLinear("prior.hid", dh, dh, rng)
	m.priorMu = nn.NewLinear("prior.mu", dh, dz, rng)
	m.priorSig = nn.NewLinear("prior.sig", dh, dz, rng)
	m.postHid = nn.NewLinear("post.hid", de+dh, dh, rng)
	m.postMu = nn.NewLinear("post.mu", dh, dz, rng)
	m.postSig = nn.NewLinear("post.sig", dh, dz, rng)
	// Cool the log-σ heads so both distributions start near unit variance;
	// a hot start makes the first KL term dominate the ELBO by many orders
	// of magnitude and destabilises the first Adam steps.
	m.priorSig.W.Value.ScaleInPlace(0.01)
	m.postSig.W.Value.ScaleInPlace(0.01)

	ds := dz + dh
	m.fAlpha = nn.NewMLP("mix.alpha", []int{ds, dh, cfg.K}, tensor.ActLeakyReLU, rng)
	m.fTheta = nn.NewMLP("mix.theta", []int{ds, dh, cfg.K}, tensor.ActLeakyReLU, rng)

	m.gat = gnn.NewGAT("attr.gat", ds, dh, rng)
	m.attrMLP = nn.NewMLP("attr.mlp", []int{dh, dh, max(cfg.F, 1)}, tensor.ActLeakyReLU, rng)

	m.t2v = nn.NewTime2Vec("t2v", cfg.TimeDim, rng)
	gruIn := de + dz
	if cfg.UseTime2Vec {
		gruIn += cfg.TimeDim
	}
	m.gru = nn.NewGRUCell("gru", gruIn, dh, rng)

	m.adam = nn.NewAdam(nn.CollectParams(m.Modules()...), cfg.LR)
	m.adam.Clip = gradClip
	return m
}

// plainTape makes training record on tensor.NewReferenceTape, which holds
// every buffer until Reset: the reference the tape tests compare against.
// Set only by tests.
var plainTape bool

// TapePeakLiveBytes returns the high-water mark of tape-owned buffer bytes
// on the model's training tapes: the main tape's plus every branch tape's,
// 2W+1 peaks for windows of W steps. The tapes peak at different times, so
// the sum is an upper bound. The marks survive Tape.Reset, so after a Fit
// it reports the per-window training footprint lifetime release achieved.
func (m *Model) TapePeakLiveBytes() int64 {
	if m.tape == nil {
		return 0
	}
	peak := m.tape.PeakLiveBytes()
	for _, t := range m.branchTapes {
		peak += t.PeakLiveBytes()
	}
	return peak
}

// Modules lists every trainable sub-module.
func (m *Model) Modules() []nn.Module {
	return []nn.Module{
		m.enc,
		m.priorHid, m.priorMu, m.priorSig,
		m.postHid, m.postMu, m.postSig,
		m.fAlpha, m.fTheta,
		m.gat, m.attrMLP,
		m.t2v, m.gru,
	}
}

// NumParams returns the scalar parameter count (the paper's |θ|).
func (m *Model) NumParams() int { return nn.NumParams(m.Modules()...) }

// Trained reports whether Fit has completed at least one epoch.
func (m *Model) Trained() bool { return m.trained }

// prior evaluates the prior network on hidden states (taped).
func (m *Model) prior(c *nn.Ctx, h *tensor.Node) (mu, logSig *tensor.Node) {
	hid := m.priorHid.ApplyAct(c, tensor.ActLeakyReLU, h)
	return m.priorMu.Apply(c, hid), m.priorSig.Apply(c, hid)
}

// posterior evaluates the posterior network on [ε ‖ h] (taped), reading
// ε and h against their blocks of the hidden layer's weight in place.
func (m *Model) posterior(c *nn.Ctx, eps, h *tensor.Node) (mu, logSig *tensor.Node) {
	hid := m.postHid.ApplyAct(c, tensor.ActLeakyReLU, eps, h)
	return m.postMu.Apply(c, hid), m.postSig.Apply(c, hid)
}

// posteriorMean records the posterior's µ head alone: encoding an observed
// prefix uses the mean and never reads log σ.
func (m *Model) posteriorMean(c *nn.Ctx, eps, h *tensor.Node) *tensor.Node {
	return m.postMu.Apply(c, m.postHid.ApplyAct(c, tensor.ActLeakyReLU, eps, h))
}

// reparameterize records z = µ + ε·σ on the tape with the pooled noise ε,
// drawn beforehand. The tape takes ownership of noise, so Reset recycles
// it.
func reparameterize(t *tensor.Tape, mu, logSig *tensor.Node, noise *tensor.Matrix) *tensor.Node {
	return t.Add(mu, t.Mul(t.Owned(noise), t.Exp(logSig)))
}

// sampleLatent computes z = µ + ε·σ into a pooled buffer, ε the drawn
// noise in µ's row-major order. It overwrites logSig with σ.
//
// σ = exp(log σ) with log σ clamped to [-20, 20], the same ±20 bound
// GaussianKL puts on log σ. It is not the tape's convention: Tape.Exp
// clamps one side only, min(v, 40), so at the extremes training and
// generation draw z from different σ (ROADMAP item 4).
func sampleLatent(mu, logSig *tensor.Matrix, noise []float64) *tensor.Matrix {
	sig := logSig.Data
	for i, v := range sig {
		if v > 20 {
			sig[i] = 20
		} else if v < -20 {
			sig[i] = -20
		}
	}
	tensor.VExp(sig)
	z := tensor.Get(mu.Rows, mu.Cols)
	for i, v := range mu.Data {
		z.Data[i] = v + noise[i]*sig[i]
	}
	return z
}
