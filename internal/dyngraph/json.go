package dyngraph

import (
	"encoding/json"
	"fmt"
)

// JSON wire encoding of snapshot sequences, used by the HTTP generation
// service. The format mirrors the text format's content:
//
//	{
//	  "n": 30, "f": 2,
//	  "snapshots": [
//	    {"edges": [[0,1],[4,2]], "x": [[0.1,0.2], ...]},
//	    ...
//	  ]
//	}
//
// "edges" lists directed [src,dst] pairs in deterministic (src-major,
// dst-minor) order; "x" is the N×F attribute matrix and is omitted for
// unattributed sequences.

type snapshotWire struct {
	Edges [][2]int    `json:"edges"`
	X     [][]float64 `json:"x,omitempty"`
}

type sequenceWire struct {
	N         int            `json:"n"`
	F         int            `json:"f"`
	Snapshots []snapshotWire `json:"snapshots"`
}

// MarshalJSON encodes the sequence in the JSON wire format.
func (g *Sequence) MarshalJSON() ([]byte, error) {
	w := sequenceWire{N: g.N, F: g.F, Snapshots: make([]snapshotWire, g.T())}
	for t, s := range g.Snapshots {
		sw := snapshotWire{Edges: s.Edges()}
		if g.F > 0 && s.X != nil {
			sw.X = make([][]float64, s.N)
			for i := 0; i < s.N; i++ {
				sw.X[i] = s.X.Row(i)
			}
		}
		w.Snapshots[t] = sw
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a sequence from the JSON wire format, validating
// node indices and attribute shapes.
func (g *Sequence) UnmarshalJSON(data []byte) error {
	var w sequenceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dyngraph: decode sequence: %w", err)
	}
	if err := checkDims(w.N, w.F, len(w.Snapshots)); err != nil {
		return fmt.Errorf("dyngraph: %w", err)
	}
	dec := NewSequence(w.N, w.F, len(w.Snapshots))
	for t, sw := range w.Snapshots {
		snap := dec.Snapshots[t]
		for _, e := range sw.Edges {
			if err := checkEdge(w.N, e[0], e[1]); err != nil {
				return fmt.Errorf("dyngraph: snapshot %d: %w", t, err)
			}
			snap.AddEdge(e[0], e[1])
		}
		if w.F > 0 {
			if len(sw.X) != w.N {
				return fmt.Errorf("dyngraph: snapshot %d: %d attribute rows, want %d", t, len(sw.X), w.N)
			}
			for i, row := range sw.X {
				if len(row) != w.F {
					return fmt.Errorf("dyngraph: snapshot %d: row %d has %d values, want %d", t, i, len(row), w.F)
				}
				copy(snap.X.Row(i), row)
			}
		}
	}
	*g = *dec
	return nil
}
