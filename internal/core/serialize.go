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
// map so Save is byte-deterministic within a process: two models with
// identical weights produce identical checkpoint files (gob serialises
// map entries in iteration order, which Go randomises), which is what lets
// tests pin that the trained bytes are invariant to the tape executor.
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
// and generate immediately without retraining. Parameters are emitted
// sorted by name, so within one process two models with equal state write
// equal bytes. Across processes they need not: gob numbers the types it
// sends process-wide, so a process that gob-encoded another type first
// (a ForecastState, say) writes different type IDs into the same model's
// bytes. Pin a model's state with state(), not with these bytes, until the
// format is versioned (ROADMAP item 9(b)).
func (m *Model) Save(w io.Writer) error {
	st, err := m.state()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&st)
}

// state collects what Save writes: the config, every parameter sorted by
// name, and the training statistics.
func (m *Model) state() (modelState, error) {
	st := modelState{
		Cfg:           m.Cfg,
		Trained:       m.trained,
		EdgeTargets:   m.cal.edgeTargets,
		ActiveStats:   m.activeStats,
		PersistRate:   m.cal.persistRate,
		AttrMean:      m.cal.attrMean,
		AttrStd:       m.cal.attrStd,
		AttrRho:       m.cal.attrRho,
		AttrR2:        m.cal.attrR2,
		AttrCorrChol:  m.cal.attrCorrChol,
		AttrQuantiles: m.cal.attrQuantiles,
	}
	seen := make(map[string]bool)
	for _, p := range nn.CollectParams(m.Modules()...) {
		if seen[p.Name] {
			return modelState{}, fmt.Errorf("core: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		st.Params = append(st.Params, savedParam{
			Name: p.Name,
			Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	sort.Slice(st.Params, func(i, j int) bool { return st.Params[i].Name < st.Params[j].Name })
	return st, nil
}

// readModelState decodes and checks Save's bytes, building no model.
func readModelState(r io.Reader) (modelState, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return st, fmt.Errorf("core: decode model (checkpoints from before the name-sorted parameter format must be retrained or re-saved): %w", err)
	}
	if err := st.check(); err != nil {
		return st, fmt.Errorf("core: saved model: %w", err)
	}
	return st, nil
}

// Load restores a model previously written with Save. Checkpoints written
// before the byte-deterministic format (parameters as a name-sorted slice
// rather than a gob map) cannot be decoded; re-save them with this build.
// A file whose configuration New cannot build, or whose parameters or
// calibration statistics do not match that configuration's shapes and
// lengths, is an error, not a panic or a partly initialised model.
func Load(r io.Reader) (*Model, error) {
	st, err := readModelState(r)
	if err != nil {
		return nil, err
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
		if len(sm.Data) != len(p.Value.Data) {
			return nil, fmt.Errorf("core: parameter %q has %d values, want %d",
				p.Name, len(sm.Data), len(p.Value.Data))
		}
		copy(p.Value.Data, sm.Data)
	}
	m.trained, m.activeStats = st.Trained, st.ActiveStats
	m.cal = calibration{
		edgeTargets:   st.EdgeTargets,
		persistRate:   st.PersistRate,
		attrMean:      st.AttrMean,
		attrStd:       st.AttrStd,
		attrRho:       st.AttrRho,
		attrR2:        st.AttrR2,
		attrCorrChol:  st.AttrCorrChol,
		attrQuantiles: st.AttrQuantiles,
	}
	return m, nil
}

// check holds a decoded state to what Load may install: a Config New can
// build, parameter values enough to fill the model that Config declares, and
// calibration statistics of the lengths that Config implies. Each
// statistic may be absent (an untrained model saves none), but one that is
// present must be whole, or the first generation indexes past it.
//
// The parameter count is compared before New runs, because New allocates
// every parameter (and Adam's moments) at the declared widths: a file that
// declares HiddenDim = 10⁶ would otherwise cost terabytes to refuse.
func (st *modelState) check() error {
	if err := st.Cfg.withDefaults().check(); err != nil {
		return err
	}
	var values float64
	for _, p := range st.Params {
		values += float64(len(p.Data))
	}
	if want := paramCount(st.Cfg); values < want {
		return fmt.Errorf("parameters hold %.0f values, its Config declares %.0f", values, want)
	}
	if len(st.ActiveStats) != len(st.EdgeTargets) {
		return fmt.Errorf("ActiveStats has %d steps, EdgeTargets %d", len(st.ActiveStats), len(st.EdgeTargets))
	}
	if len(st.AttrStd) != len(st.AttrMean) {
		return fmt.Errorf("AttrStd has %d values, AttrMean %d", len(st.AttrStd), len(st.AttrMean))
	}
	f := st.Cfg.F
	for _, s := range []struct {
		name      string
		got, want int
	}{
		{"AttrMean", len(st.AttrMean), f},
		{"AttrRho", len(st.AttrRho), f},
		{"AttrR2", len(st.AttrR2), f},
		{"AttrCorrChol", len(st.AttrCorrChol), f * f},
		{"AttrQuantiles", len(st.AttrQuantiles), f},
	} {
		if s.got != 0 && s.got != s.want {
			return fmt.Errorf("%s has %d values, want %d for F=%d", s.name, s.got, s.want, f)
		}
	}
	return nil
}

// paramCount returns how many parameter values New(cfg) allocates, from
// the Config alone, in float64 so that no declared width can overflow it.
// Every parameter holds at least one value, so a file that passes this
// also bounds how many parameters New builds. It follows New's
// constructors module by module; TestParamCountMatchesNew holds the two
// together.
func paramCount(cfg Config) float64 {
	c := cfg.withDefaults()
	f, h, z, e := float64(c.F), float64(c.HiddenDim), float64(c.LatentDim), float64(c.EncoderDim)
	layers, mlp, td := float64(c.EncoderLayers), float64(max(c.MLPLayers, 1)), float64(c.TimeDim)
	var n float64
	// linear counts `times` nn.Linear layers of in×out weights and out biases.
	linear := func(times, in, out float64) { n += times * (in*out + out) }
	// gnn.NewBiFlowEncoder: the input projection; per layer two GIN MLPs of
	// MLPLayers h×h linears and two ε scalars; the aggregator and the pool.
	linear(1, f+2, h)
	linear(2*layers*mlp, h, h)
	n += 2 * layers
	linear(1, 2*h, h)
	linear(1, layers*h, e)
	// Prior and posterior networks, each a hidden layer and two heads.
	linear(1, h, h)
	linear(2, h, z)
	linear(1, e+h, h)
	linear(2, h, z)
	// The MixBernoulli heads fAlpha and fTheta, each [z+h, h, K].
	linear(2, z+h, h)
	linear(2, h, float64(c.K))
	// The attribute decoder: GAT (W and two attention vectors), then MLP.
	linear(1, z+h, h)
	linear(2, h, 1)
	linear(1, h, h)
	linear(1, h, max(f, 1))
	// Time2Vec's w and φ, then the GRU's three W, three U and three b.
	n += 2 * td
	gruIn := e + z
	if c.UseTime2Vec {
		gruIn += td
	}
	return n + 3*(gruIn*h+h*h+h)
}
