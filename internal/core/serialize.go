package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"vrdag/internal/nn"
)

// modelState is the serialised form of a trained model: the configuration,
// every named parameter tensor, and the calibration statistics captured
// from the training sequence. Params is a name-sorted slice rather than a
// map so Save is byte-deterministic: two models with identical weights
// produce identical checkpoint files (gob serialises map entries in
// iteration order, which Go randomises), which is what lets tests pin
// that the trained bytes are invariant to the tape executor and to a
// resume from a crash checkpoint.
type modelState struct {
	Cfg     Config
	Params  []savedParam
	Trained bool

	EdgeTargets   []float64
	ActiveStats   []float64
	PersistRate   float64
	AttrMean      []float64
	AttrStd       []float64
	AttrRho       []float64
	AttrR2        []float64
	AttrCorr      []float64
	AttrCorrChol  []float64
	AttrQuantiles [][]float64
}

type savedParam struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Save writes the model (architecture config, parameters, calibration
// statistics) to w in gob encoding. The model can be restored with Load
// and generate immediately without retraining. Output bytes are a pure
// function of the model state (parameters are emitted sorted by name).
func (m *Model) Save(w io.Writer) error {
	st := modelState{
		Cfg:           m.Cfg,
		Trained:       m.trained,
		EdgeTargets:   m.edgeTargets,
		ActiveStats:   m.activeStats,
		PersistRate:   m.persistRate,
		AttrMean:      m.attrMean,
		AttrStd:       m.attrStd,
		AttrRho:       m.attrRho,
		AttrR2:        m.attrR2,
		AttrCorr:      m.attrCorr,
		AttrCorrChol:  m.attrCorrChol,
		AttrQuantiles: m.attrQuantiles,
	}
	// The resume-checkpoint settings are durability hints, not model
	// hyper-parameters: a checkpoint resumed mid-run from a crash checkpoint
	// must be byte-identical to one trained in a single uninterrupted pass
	// (the invariance contract pinned by the serialization tests), and must
	// not pin paths of the machine that trained it on whatever machine later
	// loads it.
	st.Cfg = stripVolatileCfg(st.Cfg)
	seen := make(map[string]bool)
	for _, p := range nn.CollectParams(m.Modules()...) {
		if seen[p.Name] {
			return fmt.Errorf("core: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		st.Params = append(st.Params, savedParam{
			Name: p.Name,
			Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	sort.Slice(st.Params, func(i, j int) bool { return st.Params[i].Name < st.Params[j].Name })
	return gob.NewEncoder(w).Encode(&st)
}

// Load restores a model previously written with Save. Checkpoints written
// before the byte-deterministic format (parameters as a name-sorted slice
// rather than a gob map) cannot be decoded; re-save them with this build.
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode model (checkpoints from before the name-sorted parameter format must be retrained or re-saved): %w", err)
	}
	byName := make(map[string]*savedParam, len(st.Params))
	for i := range st.Params {
		byName[st.Params[i].Name] = &st.Params[i]
	}
	m := New(st.Cfg)
	for _, p := range nn.CollectParams(m.Modules()...) {
		sm, ok := byName[p.Name]
		if !ok {
			return nil, fmt.Errorf("core: saved model missing parameter %q", p.Name)
		}
		if sm.Rows != p.Value.Rows || sm.Cols != p.Value.Cols {
			return nil, fmt.Errorf("core: parameter %q has shape %dx%d, want %dx%d",
				p.Name, sm.Rows, sm.Cols, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, sm.Data)
	}
	m.trained = st.Trained
	m.edgeTargets = st.EdgeTargets
	m.activeStats = st.ActiveStats
	m.persistRate = st.PersistRate
	m.attrMean = st.AttrMean
	m.attrStd = st.AttrStd
	m.attrRho = st.AttrRho
	m.attrR2 = st.AttrR2
	m.attrCorr = st.AttrCorr
	m.attrCorrChol = st.AttrCorrChol
	m.attrQuantiles = st.AttrQuantiles
	return m, nil
}
