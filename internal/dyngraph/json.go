package dyngraph

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
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
// unattributed sequences, for snapshots without an attribute matrix and
// when N = 0. Numbers are written the way encoding/json writes them, so
// the bytes are the ones json.Marshal of the plain structs below would
// produce; NaN and ±Inf have no JSON form and are an error.

// snapshotWire and sequenceWire are the decoding targets of UnmarshalJSON.
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
func (g *Sequence) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil) }

// AppendJSON appends the sequence's JSON wire encoding to dst. On error
// (a non-finite attribute) it returns dst unchanged. Unlike json.Marshal
// it does not re-scan its own output, so a server can append a sequence
// straight into a reply buffer.
func (g *Sequence) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"n":`...)
	b = strconv.AppendInt(b, int64(g.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(g.F), 10)
	b = append(b, `,"snapshots":[`...)
	for t, s := range g.Snapshots {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		var err error
		if b, err = s.appendFields(b, g.F > 0); err != nil {
			return dst, fmt.Errorf("dyngraph: snapshot %d: %w", t, err)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// AppendJSONFields appends the snapshot's members of the wire format,
// `"edges":[…]` and, when it has attributes, `,"x":[…]`, without the
// enclosing braces, so a caller can put its own members beside them. On
// error (a non-finite attribute) it returns dst unchanged.
func (s *Snapshot) AppendJSONFields(dst []byte) ([]byte, error) {
	b, err := s.appendFields(dst, true)
	if err != nil {
		return dst, fmt.Errorf("dyngraph: %w", err)
	}
	return b, nil
}

// appendFields writes "edges" in Edges order and, if withX and the
// snapshot has an attribute matrix and nodes, "x" row by row.
func (s *Snapshot) appendFields(b []byte, withX bool) ([]byte, error) {
	b = append(b, `"edges":[`...)
	first := true
	for u := 0; u < s.N; u++ {
		for _, v := range s.Out[u] {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ']')
		}
	}
	b = append(b, ']')
	if !withX || s.X == nil || s.N == 0 {
		return b, nil
	}
	b = append(b, `,"x":[`...)
	for i := 0; i < s.N; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range s.X.Row(i) {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendFloat writes v as encoding/json does (ES6 number formatting):
// 'f' format unless |v| < 1e-6 or |v| ≥ 1e21, else 'e' with a one-digit
// negative exponent unpadded (e-09 → e-9).
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
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
