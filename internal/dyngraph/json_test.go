package dyngraph

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vrdag/internal/tensor"
)

func randomSequence(n, f, tt int, seed int64) *Sequence {
	rng := rand.New(rand.NewSource(seed))
	g := NewSequence(n, f, tt)
	for _, s := range g.Snapshots {
		for e := 0; e < 3*n; e++ {
			s.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		if f > 0 {
			for i := range s.X.Data {
				s.X.Data[i] = rng.NormFloat64()
			}
		}
	}
	return g
}

func TestJSONRoundTrip(t *testing.T) {
	for _, f := range []int{0, 3} {
		g := randomSequence(12, f, 4, 7)
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Sequence
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.N != g.N || back.F != g.F || back.T() != g.T() {
			t.Fatalf("shape mismatch: got (%d,%d,%d), want (%d,%d,%d)",
				back.N, back.F, back.T(), g.N, g.F, g.T())
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("decoded sequence invalid: %v", err)
		}
		for tt := 0; tt < g.T(); tt++ {
			a, b := g.At(tt), back.At(tt)
			if a.NumEdges() != b.NumEdges() {
				t.Fatalf("snapshot %d: %d edges, want %d", tt, b.NumEdges(), a.NumEdges())
			}
			for _, e := range a.Edges() {
				if !b.HasEdge(e[0], e[1]) {
					t.Fatalf("snapshot %d: missing edge %v", tt, e)
				}
			}
			if f > 0 {
				for i := range a.X.Data {
					if a.X.Data[i] != b.X.Data[i] {
						t.Fatalf("snapshot %d: attribute mismatch at %d", tt, i)
					}
				}
			}
		}
	}
}

func TestJSONEmptySnapshotEdgesNotNull(t *testing.T) {
	g := NewSequence(3, 0, 1)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(data), "null") {
		t.Fatalf("empty snapshot encoded with null: %s", data)
	}
}

func TestJSONRejectsOutOfRangeEdge(t *testing.T) {
	var g Sequence
	err := json.Unmarshal([]byte(`{"n":3,"f":0,"snapshots":[{"edges":[[0,5]]}]}`), &g)
	if err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
}

func TestJSONRejectsBadAttributeShape(t *testing.T) {
	var g Sequence
	err := json.Unmarshal([]byte(`{"n":2,"f":2,"snapshots":[{"edges":[],"x":[[1,2]]}]}`), &g)
	if err == nil {
		t.Fatal("expected error for wrong attribute row count")
	}
}

// referenceJSON is the reflection encoding the wire format is defined by:
// the plain structs through json.Marshal, with none of the appender's
// code. AppendJSON must produce its bytes exactly.
func referenceJSON(g *Sequence) ([]byte, error) {
	w := sequenceWire{N: g.N, F: g.F, Snapshots: make([]snapshotWire, g.T())}
	for t, s := range g.Snapshots {
		sw := snapshotWire{Edges: s.Edges()}
		if g.F > 0 && s.X != nil {
			sw.X = make([][]float64, s.N)
			for i := range sw.X {
				sw.X[i] = s.X.Row(i)
			}
		}
		w.Snapshots[t] = sw
	}
	return json.Marshal(w)
}

// checkAgainstReference fails t unless AppendJSON and MarshalJSON (through
// json.Marshal) both give referenceJSON's bytes, or all three error.
func checkAgainstReference(t *testing.T, g *Sequence) {
	t.Helper()
	want, wantErr := referenceJSON(g)
	prefix := []byte("prefix")
	got, err := g.AppendJSON(prefix)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendJSON returned %q on error, want dst unchanged", got)
		}
		if _, err := json.Marshal(g); err == nil {
			t.Fatal("json.Marshal accepted a sequence the reference rejects")
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON differs from the reflection encoding:\n got %s\nwant %s", got[len(prefix):], want)
	}
	viaMarshal, err := json.Marshal(g)
	if err != nil || !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal(seq) = %s, %v; want %s", viaMarshal, err, want)
	}
}

func TestAppendJSONMatchesReflection(t *testing.T) {
	edge := func(n, f, tt int, vals ...float64) *Sequence {
		g := NewSequence(n, f, tt)
		for _, s := range g.Snapshots {
			if n > 1 {
				s.AddEdge(0, n-1)
				s.AddEdge(n-1, 0)
			}
			if s.X != nil {
				for i := range s.X.Data {
					s.X.Data[i] = vals[i%len(vals)]
				}
			}
		}
		return g
	}
	cuts := []float64{
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e21, math.Nextafter(1e21, 0), -1e21,
		math.Copysign(0, -1), 0, 5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e-7, 1.5e-10, 123456789012345678, 0.1, -2.5, 1e20, 1e100,
	}
	noX := edge(3, 2, 2, 1)
	noX.Snapshots[1].X = nil
	strayX := edge(2, 0, 1) // F = 0 writes no "x", whatever a snapshot holds
	strayX.Snapshots[0].X = tensor.New(2, 1)
	for name, g := range map[string]*Sequence{
		"empty":        NewSequence(0, 0, 0),
		"no nodes":     NewSequence(0, 2, 2),
		"no edges":     NewSequence(4, 0, 2),
		"unattributed": randomSequence(9, 0, 3, 1),
		"attributed":   randomSequence(9, 3, 3, 2),
		"cut points":   edge(5, 4, 2, cuts...),
		"nil x":        noX,
		"stray x":      strayX,
		"nan":          edge(2, 1, 1, math.NaN()),
		"+inf":         edge(3, 2, 1, 0.5, math.Inf(1)),
		"-inf":         edge(3, 2, 1, math.Inf(-1)),
	} {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, g) })
	}
}

func TestAppendJSONFieldsMatchesSequence(t *testing.T) {
	g := randomSequence(7, 2, 2, 3)
	whole, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var parts []byte
	for i, s := range g.Snapshots {
		if i > 0 {
			parts = append(parts, ',')
		}
		parts = append(parts, '{')
		if parts, err = s.AppendJSONFields(parts); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, '}')
	}
	if !bytes.Contains(whole, parts) {
		t.Fatalf("snapshot members %s are not the sequence's %s", parts, whole)
	}
	g.Snapshots[1].X.Data[3] = math.NaN()
	if out, err := g.Snapshots[1].AppendJSONFields([]byte("x")); err == nil || string(out) != "x" {
		t.Fatalf("AppendJSONFields with NaN = %q, %v; want dst unchanged and an error", out, err)
	}
}

// fuzzSequence builds a sequence from fuzz bytes: N and F in 0..8 and T in
// 0..4 from the first three bytes, then per snapshot a flags byte (bit 0
// drops the attribute matrix), an edge count, that many endpoint pairs
// and, with attributes, N·F values read as raw float64 bits (8 bytes,
// big-endian). Bytes past the end read as zero.
func fuzzSequence(data []byte) *Sequence {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, f, tt := int(next()%9), int(next()%9), int(next()%5)
	g := NewSequence(n, f, tt)
	for _, s := range g.Snapshots {
		flags, m := next(), int(next())
		for e := 0; e < m; e++ {
			u, v := int(next()), int(next())
			if n > 0 {
				s.AddEdge(u%n, v%n)
			}
		}
		if flags&1 != 0 {
			s.X = nil
		}
		if s.X == nil {
			continue
		}
		for i := range s.X.Data {
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			s.X.Data[i] = math.Float64frombits(bits)
		}
	}
	return g
}

// FuzzSequenceJSON holds the appender to the reflection encoding on
// sequences built from arbitrary bytes: the same bytes, or both error
// (NaN, ±Inf). testdata/fuzz/FuzzSequenceJSON holds the seeds: ±0,
// subnormals, the 1e-6 and 1e21 cut points, a NaN, an empty sequence, a
// snapshot without attributes and one with no nodes.
func FuzzSequenceJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzSequence(data))
	})
}

// BenchmarkSequenceJSON encodes a forecast-shaped reply sequence (T=8,
// N=94, F=2) with the appender, through json.Marshal (the Marshaler path,
// which re-scans the appender's output), and with the reflection encoding
// MarshalJSON used before the appender.
func BenchmarkSequenceJSON(b *testing.B) {
	g := randomSequence(94, 2, 8, 1)
	want, err := referenceJSON(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		enc  func(dst []byte) ([]byte, error)
	}{
		{"append", g.AppendJSON},
		{"marshal", func([]byte) ([]byte, error) { return json.Marshal(g) }},
		{"reflect", func([]byte) ([]byte, error) { return referenceJSON(g) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for b.Loop() {
				if buf, err = c.enc(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(buf, want) {
				b.Fatal("encoding differs from the reflection encoding")
			}
		})
	}
}
