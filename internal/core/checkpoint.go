package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"vrdag/internal/durable"
	"vrdag/internal/nn"
)

// Crash-safe training checkpoints: Fit periodically persists everything an
// epoch boundary depends on — parameters, Adam moments, the epoch index,
// and the model RNG's absolute draw count — via durable.WriteFileAtomic,
// so a killed training run resumes mid-schedule and finishes with Save
// bytes identical to an uninterrupted run.
//
// Epoch boundaries are clean cut points by construction: the trainer
// restarts the hidden state at H_0 = 0 every epoch, and the residual
// moments are accumulated only during the final epoch — which a resumed
// run always re-runs, because checkpoints are only written while at least
// one epoch remains.

// fitFS is the filesystem resume checkpoints are written through.
// Package-level so fault-injection tests can swap in a durable.FaultFS.
var fitFS durable.FS = durable.OS

// countingSource wraps a rand.Source64 and counts draws. math/rand's
// rngSource advances exactly one internal step per Int63/Uint64 call, so
// replaying N draws on a fresh source of the same seed reproduces the
// state after N draws exactly — the count is a perfect RNG cursor.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// fastForward advances the source to an absolute draw count.
func (c *countingSource) fastForward(to uint64) error {
	if c.n > to {
		return fmt.Errorf("core: RNG cursor already at %d draws, cannot rewind to %d", c.n, to)
	}
	for c.n < to {
		c.Uint64()
	}
	return nil
}

// residWire is the gob mirror of residMoments (whose fields are
// unexported). Carried in checkpoints for completeness even though a
// resumed run always re-runs the final epoch that populates it.
type residWire struct {
	PredSum, PredSq []float64
	TrueSum, TrueSq []float64
	CrossSum        []float64
	Count           float64
}

// fitCheckpoint is the serialized state of a training run at an epoch
// boundary. Params are name-sorted like Save's, so checkpoint bytes are a
// pure function of training state.
type fitCheckpoint struct {
	Cfg        Config // durability/scheduling hints zeroed
	EpochsDone int
	RNGDraws   uint64
	Params     []savedParam
	Adam       nn.AdamState
	Resid      residWire
}

// stripVolatileCfg zeroes every field that is an execution or durability
// hint rather than a model hyper-parameter, so checkpoint compatibility
// compares only what determines the trained weights.
func stripVolatileCfg(c Config) Config {
	c.CheckpointEvery = 0
	c.CheckpointPath = ""
	c.CheckpointEveryEpochs = 0
	return c
}

// checkpointEvery resolves the epoch interval between resume checkpoints.
func (m *Model) checkpointEvery() int {
	if m.Cfg.CheckpointEveryEpochs > 0 {
		return m.Cfg.CheckpointEveryEpochs
	}
	return 1
}

// writeFitCheckpoint persists the state after epochsDone completed epochs.
func (m *Model) writeFitCheckpoint(fsys durable.FS, epochsDone int) error {
	ck := fitCheckpoint{
		Cfg:        stripVolatileCfg(m.Cfg),
		EpochsDone: epochsDone,
		RNGDraws:   m.rngSrc.n,
		Adam:       m.adam.State(),
		Resid: residWire{
			PredSum: m.resid.predSum, PredSq: m.resid.predSq,
			TrueSum: m.resid.trueSum, TrueSq: m.resid.trueSq,
			CrossSum: m.resid.crossSum, Count: m.resid.count,
		},
	}
	for _, p := range nn.CollectParams(m.Modules()...) {
		ck.Params = append(ck.Params, savedParam{
			Name: p.Name,
			Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	sort.Slice(ck.Params, func(i, j int) bool { return ck.Params[i].Name < ck.Params[j].Name })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
		return fmt.Errorf("core: encode training checkpoint: %w", err)
	}
	if err := durable.WriteFileAtomic(fsys, m.Cfg.CheckpointPath, buf.Bytes()); err != nil {
		return fmt.Errorf("core: write training checkpoint: %w", err)
	}
	return nil
}

// tryResumeFit loads the resume checkpoint, if one exists, and restores
// parameters, optimizer moments, and the RNG cursor. It returns the number
// of epochs already completed (0 when starting fresh).
func (m *Model) tryResumeFit(fsys durable.FS) (int, error) {
	data, err := durable.ReadFile(fsys, m.Cfg.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("core: read training checkpoint: %w", err)
	}
	var ck fitCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return 0, fmt.Errorf("core: decode training checkpoint %s: %w", m.Cfg.CheckpointPath, err)
	}
	if got, want := ck.Cfg, stripVolatileCfg(m.Cfg); got != want {
		return 0, fmt.Errorf("core: training checkpoint %s was written for a different model configuration", m.Cfg.CheckpointPath)
	}
	if ck.EpochsDone <= 0 || ck.EpochsDone >= m.Cfg.Epochs {
		return 0, fmt.Errorf("core: training checkpoint %s claims %d completed epochs of %d", m.Cfg.CheckpointPath, ck.EpochsDone, m.Cfg.Epochs)
	}
	byName := make(map[string]*savedParam, len(ck.Params))
	for i := range ck.Params {
		byName[ck.Params[i].Name] = &ck.Params[i]
	}
	params := nn.CollectParams(m.Modules()...)
	for _, p := range params {
		sp, ok := byName[p.Name]
		if !ok {
			return 0, fmt.Errorf("core: training checkpoint missing parameter %q", p.Name)
		}
		if sp.Rows != p.Value.Rows || sp.Cols != p.Value.Cols {
			return 0, fmt.Errorf("core: checkpointed parameter %q has shape %dx%d, want %dx%d",
				p.Name, sp.Rows, sp.Cols, p.Value.Rows, p.Value.Cols)
		}
	}
	// Validation passed; now mutate.
	for _, p := range params {
		copy(p.Value.Data, byName[p.Name].Data)
	}
	if err := m.adam.Restore(ck.Adam); err != nil {
		return 0, fmt.Errorf("core: restore optimizer from checkpoint: %w", err)
	}
	if err := m.rngSrc.fastForward(ck.RNGDraws); err != nil {
		return 0, err
	}
	m.resid = residMoments{
		predSum: ck.Resid.PredSum, predSq: ck.Resid.PredSq,
		trueSum: ck.Resid.TrueSum, trueSq: ck.Resid.TrueSq,
		crossSum: ck.Resid.CrossSum, count: ck.Resid.Count,
	}
	return ck.EpochsDone, nil
}

// removeFitCheckpoint deletes the resume checkpoint after a completed Fit
// (best effort): a finished run must not be mistaken for an interrupted
// one by the next call.
func (m *Model) removeFitCheckpoint(fsys durable.FS) {
	if err := fsys.Remove(m.Cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
		return
	}
}
