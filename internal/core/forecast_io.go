package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// Durable ForecastState serialization: the serving layer snapshots a
// session's encoded state to disk so idle sessions can spill out of RAM
// and survive restarts. gob carries float64 values bit-exactly, so
// encode→decode→Forecast is byte-identical to forecasting from the live
// state (pinned by TestForecastStateEncodeDecodeRoundTrip).

// forecastStateWire is the gob shape of a ForecastState. The persistence
// snapshot (prev) is stored as its out-adjacency only; In lists and edge
// counts are rebuilt by AddEdge on decode, which also restores the sorted
// neighbour-list invariant (the lists were built by AddEdge, so they
// round-trip unchanged).
type forecastStateWire struct {
	Steps  int
	HRows  int
	HCols  int
	H      []float64
	Degree []float64

	HasPrev bool
	PrevOut [][]int

	AttrRows int
	AttrCols int
	Attr     []float64
}

// EncodeForecastState serializes st for durable storage. The state is
// read, not mutated or retained.
func EncodeForecastState(st *ForecastState) ([]byte, error) {
	if st == nil || st.released {
		return nil, fmt.Errorf("core: EncodeForecastState on a nil or released state")
	}
	if st.h == nil {
		return nil, fmt.Errorf("core: EncodeForecastState on a state with no hidden matrix")
	}
	w := forecastStateWire{
		Steps:  st.steps,
		HRows:  st.h.Rows,
		HCols:  st.h.Cols,
		H:      st.h.Data[:st.h.Rows*st.h.Cols],
		Degree: st.degree,
	}
	if st.prev != nil {
		w.HasPrev = true
		w.PrevOut = st.prev.Out
	}
	if st.attrState != nil {
		w.AttrRows = st.attrState.Rows
		w.AttrCols = st.attrState.Cols
		w.Attr = st.attrState.Data[:st.attrState.Rows*st.attrState.Cols]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("core: encode ForecastState: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeForecastState reconstructs a ForecastState from EncodeForecastState
// bytes, validating shapes against the model's configuration. The returned
// state owns fresh pooled buffers and must be Released like any other.
func (m *Model) DecodeForecastState(data []byte) (*ForecastState, error) {
	var w forecastStateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decode ForecastState: %w", err)
	}
	n := m.Cfg.N
	if w.HRows != n || w.HCols != m.Cfg.HiddenDim {
		return nil, fmt.Errorf("core: decoded ForecastState is %dx%d, model wants %dx%d", w.HRows, w.HCols, n, m.Cfg.HiddenDim)
	}
	if len(w.H) != w.HRows*w.HCols {
		return nil, fmt.Errorf("core: decoded ForecastState has %d hidden values, want %d", len(w.H), w.HRows*w.HCols)
	}
	if len(w.Degree) != n {
		return nil, fmt.Errorf("core: decoded ForecastState has %d degree entries, want %d", len(w.Degree), n)
	}
	// A degree becomes the candidate weight degree+1 of capped decoding,
	// whose prefix sums must come out finite and non-decreasing.
	for v, d := range w.Degree {
		if !(d >= 0) || math.IsInf(d, 1) {
			return nil, fmt.Errorf("core: decoded ForecastState has degree[%d] = %v, want finite and non-negative", v, d)
		}
	}
	if w.Steps < 0 || w.Steps > math.MaxInt32 {
		return nil, fmt.Errorf("core: decoded ForecastState has step count %d, want 0 to 2^31-1", w.Steps)
	}
	// The recurrence and the attribute process carry these values into
	// every later step: one NaN, or one value whose square overflows,
	// turns the whole forecast's attributes NaN.
	if i := badStateValue(w.H); i >= 0 {
		return nil, fmt.Errorf("core: decoded ForecastState has H[%d] = %v, want finite and within ±%g", i, w.H[i], maxStateMagnitude)
	}
	if i := badStateValue(w.Attr); i >= 0 {
		return nil, fmt.Errorf("core: decoded ForecastState has attr[%d] = %v, want finite and within ±%g", i, w.Attr[i], maxStateMagnitude)
	}
	st := &ForecastState{
		h:      tensor.Get(n, m.Cfg.HiddenDim),
		degree: append([]float64(nil), w.Degree...),
		steps:  w.Steps,
	}
	copy(st.h.Data, w.H)
	if w.HasPrev {
		if len(w.PrevOut) > n {
			st.Release()
			return nil, fmt.Errorf("core: decoded ForecastState persistence snapshot spans %d nodes, model wants at most %d", len(w.PrevOut), n)
		}
		st.prev = dyngraph.NewSnapshot(n, 0)
		for u, outs := range w.PrevOut {
			for _, v := range outs {
				if v < 0 || v >= n {
					st.Release()
					return nil, fmt.Errorf("core: decoded ForecastState has edge %d->%d outside the %d-node universe", u, v, n)
				}
				st.prev.AddEdge(u, v)
			}
		}
	}
	if w.Attr != nil || w.AttrRows != 0 || w.AttrCols != 0 {
		if w.AttrRows != n || w.AttrCols != m.Cfg.F || len(w.Attr) != w.AttrRows*w.AttrCols {
			st.Release()
			return nil, fmt.Errorf("core: decoded ForecastState attr state is %dx%d (%d values), model wants %dx%d", w.AttrRows, w.AttrCols, len(w.Attr), n, m.Cfg.F)
		}
		st.attrState = tensor.Get(n, m.Cfg.F)
		copy(st.attrState.Data, w.Attr)
	}
	return st, nil
}

// maxStateMagnitude bounds every decoded hidden- and attribute-state value.
// A live H is a GRU state, within a few units of zero, and the attribute
// state is standardised; up to 1e100 the squares and sums a forecast forms
// over any N stay far below the float64 range, while a value near it
// overflows into NaN.
const maxStateMagnitude = 1e100

// badStateValue returns the index of the first value in v that is NaN or
// beyond ±maxStateMagnitude, or -1.
func badStateValue(v []float64) int {
	for i, x := range v {
		if !(math.Abs(x) <= maxStateMagnitude) {
			return i
		}
	}
	return -1
}
