package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
)

// Replica scales and op sizes of the in-process workloads. N=94 decodes
// exactly; N=1891 decodes through a 128-candidate cap, as at paper scale.
const (
	smallScale = 0.05 // email×0.05: N=94
	midScale   = 0.5  // email×0.5:  N=945
	largeScale = 1.0  // email×1.0:  N=1891

	smallEpochs  = 24  // epochs the small served/generating model is trained for
	candidateCap = 128 // CandidateCap of the N=1891 model

	genSmallT = 16 // gen_offline primary: snapshots per generation
	genLargeT = 8  // gen_offline secondary
	forecastT = 8  // session_rw / cluster_rw secondary: forecast horizon

	trainSmallEpochs = 8 // train primary: full-sequence BPTT at N=94
	trainMidEpochs   = 2 // train secondary: TBPTT at N=945
	trainMidTBPTT    = 4
)

func replica(scale float64, seed int64) (*dyngraph.Sequence, error) {
	g, _, err := datasets.Replica(datasets.Email, scale, seed)
	return g, err
}

// trainModel builds a fresh DefaultConfig model on g and fits it.
func trainModel(rec *recorder, parent int, g *dyngraph.Sequence, seed int64, tune func(*core.Config)) (*core.Model, core.TrainStats, error) {
	cfg := core.DefaultConfig(g.N, g.F)
	cfg.Seed = seed
	tune(&cfg)
	id := rec.begin("core.New", parent)
	m := core.New(cfg)
	rec.end(id)
	fit := rec.begin("core.Fit", parent)
	epoch, done := rec.begin("core.fit_epoch", fit), 0
	stats, err := m.Fit(g, core.WithProgress(func(core.TrainStats) {
		rec.end(epoch)
		if done++; done < cfg.Epochs {
			epoch = rec.begin("core.fit_epoch", fit)
		}
	}))
	rec.end(fit)
	return m, stats, err
}

// smallModel is the N=94 model every workload but train runs against.
func smallModel(seed int64) (*core.Model, *dyngraph.Sequence, error) {
	g, err := replica(smallScale, seed)
	if err != nil {
		return nil, nil, err
	}
	m, _, err := trainModel(nil, 0, g, seed, func(c *core.Config) { c.Epochs = smallEpochs })
	return m, g, err
}

// generate runs GenerateStream and spans each yield-to-yield decode step.
func generate(rec *recorder, parent int, m *core.Model, t int, seed int64, each func(*dyngraph.Snapshot)) (snaps, edges int, err error) {
	call := rec.begin("core.GenerateStream", parent)
	step := rec.begin("core.decode_step", call)
	err = m.GenerateStream(context.Background(), core.GenOptions{T: t, Seed: seed, Parallel: true},
		func(s *dyngraph.Snapshot) error {
			rec.end(step)
			snaps++
			edges += s.NumEdges()
			if each != nil {
				each(s)
			}
			if snaps < t {
				step = rec.begin("core.decode_step", call)
			}
			return nil
		})
	rec.end(call)
	return snaps, edges, err
}

// generateChecked is the warm-up form: the whole output is kept, decoded
// and validated, and returned in the dyngraph file format.
func generateChecked(m *core.Model, t int, seed int64) ([]byte, error) {
	seq := dyngraph.NewSequence(m.Cfg.N, m.Cfg.F, 0)
	if _, _, err := generate(nil, 0, m, t, seed, func(s *dyngraph.Snapshot) {
		seq.Snapshots = append(seq.Snapshots, s.Clone())
	}); err != nil {
		return nil, err
	}
	if seq.T() != t {
		return nil, fmt.Errorf("generated %d snapshots, want %d", seq.T(), t)
	}
	if err := seq.Validate(); err != nil {
		return nil, fmt.Errorf("generated sequence invalid: %w", err)
	}
	var buf bytes.Buffer
	err := dyngraph.Save(&buf, seq)
	return buf.Bytes(), err
}

// genRig is gen_offline: two trained models, nothing else.
type genRig struct {
	small, large *core.Model
	digest       string // sha256 of the warm-up outputs: says so when a change alters what is generated
}

func setupGen(_ *spec, seed int64, o rigOpts) (rig, error) {
	small, _, err := smallModel(seed)
	if err != nil {
		return nil, err
	}
	large, _, err := largeModel(largeScale, seed)
	if err != nil {
		return nil, err
	}
	g := &genRig{small: small, large: large}
	// Warm-up: the first two primaries share a seed and must agree byte
	// for byte; every output is validated and goes into the digest.
	h := sha256.New()
	var first []byte
	for i := 0; i < warmPrimary; i++ {
		b, err := generateChecked(small, genSmallT, seed+int64(i/2))
		if err != nil {
			return nil, fmt.Errorf("warm-up primary: %w", err)
		}
		if i == 0 {
			first = b
		} else if i == 1 && !bytes.Equal(first, b) {
			return nil, errors.New("the same generation seed gave different bytes")
		}
		h.Write(b)
	}
	b, err := generateChecked(large, genLargeT, seed)
	if err != nil {
		return nil, fmt.Errorf("warm-up secondary: %w", err)
	}
	h.Write(b)
	g.digest = hex.EncodeToString(h.Sum(nil))
	return g, nil
}

// largeModel is one epoch at the given scale: enough for calibrated
// decoding, which is all gen_offline's secondary op and the decode probe need.
func largeModel(scale float64, seed int64) (*core.Model, *dyngraph.Sequence, error) {
	g, err := replica(scale, seed)
	if err != nil {
		return nil, nil, err
	}
	m, _, err := trainModel(nil, 0, g, seed, func(c *core.Config) {
		c.Epochs = 1
		c.CandidateCap = candidateCap
	})
	return m, g, err
}

func (g *genRig) do(rec *recorder, parent int, _, _, _ int, o op) error {
	m, t := g.small, genSmallT
	if o.kind == secondary {
		m, t = g.large, genLargeT
	}
	snaps, edges, err := generate(rec, parent, m, t, o.seed, nil)
	if err != nil {
		return err
	}
	if snaps != t || edges == 0 {
		return fmt.Errorf("generated %d snapshots with %d edges, want %d snapshots", snaps, edges, t)
	}
	return nil
}

func (g *genRig) endRound(int) error { return nil }
func (g *genRig) close()             {}

// trainRig is train: two replicas; every op builds and fits a fresh model.
type trainRig struct {
	small, mid *dyngraph.Sequence
}

func setupTrain(_ *spec, seed int64, o rigOpts) (rig, error) {
	small, err := replica(smallScale, seed)
	if err != nil {
		return nil, err
	}
	mid, err := replica(midScale, seed)
	if err != nil {
		return nil, err
	}
	t := &trainRig{small: small, mid: mid}
	// Warm-up: training is deterministic, so the same model seed must give
	// the same checkpoint bytes; the remaining ops warm the arena.
	var saved [2][]byte
	for i := 0; i < warmPrimary; i++ {
		m, err := t.fit(nil, 0, op{kind: primary, seed: seed + int64(i/2)})
		if err != nil {
			return nil, fmt.Errorf("warm-up primary: %w", err)
		}
		if i < 2 {
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				return nil, err
			}
			saved[i] = buf.Bytes()
		}
	}
	if !bytes.Equal(saved[0], saved[1]) {
		return nil, errors.New("the same model seed trained to different checkpoint bytes")
	}
	if _, err := t.fit(nil, 0, op{kind: secondary, seed: seed}); err != nil {
		return nil, fmt.Errorf("warm-up secondary: %w", err)
	}
	return t, nil
}

func (t *trainRig) fit(rec *recorder, parent int, o op) (*core.Model, error) {
	g, tune := t.small, func(c *core.Config) { c.Epochs = trainSmallEpochs }
	if o.kind == secondary {
		g, tune = t.mid, func(c *core.Config) { c.Epochs, c.TBPTT = trainMidEpochs, trainMidTBPTT }
	}
	m, stats, err := trainModel(rec, parent, g, o.seed, tune)
	if err != nil {
		return nil, err
	}
	if !m.Trained() || math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) {
		return nil, fmt.Errorf("fit ended untrained or with loss %v", stats.Loss)
	}
	return m, nil
}

func (t *trainRig) do(rec *recorder, parent int, _, _, _ int, o op) error {
	_, err := t.fit(rec, parent, o)
	return err
}

func (t *trainRig) endRound(int) error { return nil }
func (t *trainRig) close()             {}
