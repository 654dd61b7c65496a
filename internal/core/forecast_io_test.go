package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// TestForecastStateEncodeDecodeRoundTrip pins the durability contract the
// serving layer's session spill/recovery builds on: a state that went
// through encode→decode forecasts byte-identically to the live original,
// and continues to absorb further snapshots identically.
func TestForecastStateEncodeDecodeRoundTrip(t *testing.T) {
	m := streamTestModel(t)
	prefix := toyGraph(20, 2, 5, 37)
	live, err := m.Encode(context.Background(), prefix)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	defer live.Release()

	blob, err := EncodeForecastState(live)
	if err != nil {
		t.Fatalf("EncodeForecastState: %v", err)
	}
	restored, err := m.DecodeForecastState(blob)
	if err != nil {
		t.Fatalf("DecodeForecastState: %v", err)
	}
	defer restored.Release()
	if restored.Steps() != live.Steps() {
		t.Fatalf("restored steps %d, want %d", restored.Steps(), live.Steps())
	}

	opts := func() GenOptions { return GenOptions{T: 4, Source: rand.NewSource(91), Parallel: true} }
	want, err := m.Forecast(context.Background(), live, opts())
	if err != nil {
		t.Fatalf("Forecast(live): %v", err)
	}
	got, err := m.Forecast(context.Background(), restored, opts())
	if err != nil {
		t.Fatalf("Forecast(restored): %v", err)
	}
	sameSequence(t, got, want, "decoded state forecast")

	// The restored state keeps encoding in lockstep with the live one.
	more := toyGraph(20, 2, 3, 53)
	for _, snap := range more.Snapshots {
		if err := m.EncodeSnapshot(live, snap); err != nil {
			t.Fatalf("EncodeSnapshot(live): %v", err)
		}
		if err := m.EncodeSnapshot(restored, snap); err != nil {
			t.Fatalf("EncodeSnapshot(restored): %v", err)
		}
	}
	want2, err := m.Forecast(context.Background(), live, opts())
	if err != nil {
		t.Fatalf("Forecast(live, extended): %v", err)
	}
	got2, err := m.Forecast(context.Background(), restored, opts())
	if err != nil {
		t.Fatalf("Forecast(restored, extended): %v", err)
	}
	sameSequence(t, got2, want2, "decoded state after further encoding")
}

func TestForecastStateEncodeDecodeColdStart(t *testing.T) {
	m := streamTestModel(t)
	cold := m.NewForecastState()
	defer cold.Release()
	blob, err := EncodeForecastState(cold)
	if err != nil {
		t.Fatalf("EncodeForecastState(cold): %v", err)
	}
	restored, err := m.DecodeForecastState(blob)
	if err != nil {
		t.Fatalf("DecodeForecastState(cold): %v", err)
	}
	defer restored.Release()
	opts := func() GenOptions { return GenOptions{T: 3, Source: rand.NewSource(7), Parallel: true} }
	want, err := m.Forecast(context.Background(), cold, opts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Forecast(context.Background(), restored, opts())
	if err != nil {
		t.Fatal(err)
	}
	sameSequence(t, got, want, "cold round trip")
}

func TestDecodeForecastStateRejectsMismatches(t *testing.T) {
	m := streamTestModel(t)
	st := m.NewForecastState()
	defer st.Release()
	blob, err := EncodeForecastState(st)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.DecodeForecastState([]byte("not gob")); err == nil {
		t.Fatal("garbage bytes decoded")
	}
	// A model over a different universe must reject the state.
	other := New(smallConfig(12, 2))
	if _, err := other.DecodeForecastState(blob); err == nil {
		t.Fatal("state for N=20 decoded into an N=12 model")
	}

	released := m.NewForecastState()
	released.Release()
	if _, err := EncodeForecastState(released); err == nil {
		t.Fatal("released state encoded")
	}
	if _, err := EncodeForecastState(nil); err == nil {
		t.Fatal("nil state encoded")
	}
}

// TestDecodeForecastStateRejectsBadDegree: a state read back from disk whose
// running degrees are not finite and non-negative would hand capped decoding
// a candidate CDF that is not non-decreasing; the decoder refuses it, names
// the entry, and takes nothing from the arena.
func TestDecodeForecastStateRejectsBadDegree(t *testing.T) {
	m := streamTestModel(t)
	st, err := m.Encode(context.Background(), toyGraph(20, 2, 5, 37))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	good, err := EncodeForecastState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		index int
		value float64
	}{
		{"negative", 0, -1},
		{"barely negative", 7, -math.SmallestNonzeroFloat64},
		{"NaN", 13, math.NaN()},
		{"+Inf", 19, math.Inf(1)},
		{"-Inf", 3, math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w forecastStateWire
			if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			w.Degree[tc.index] = tc.value
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(&w); err != nil {
				t.Fatal(err)
			}
			before := tensor.ReadPoolStats()
			_, err := m.DecodeForecastState(bad.Bytes())
			after := tensor.ReadPoolStats()
			if want := fmt.Sprintf("degree[%d]", tc.index); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Degree[%d] = %v: err = %v, want one naming %s", tc.index, tc.value, err, want)
			}
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("rejected state leaked: %d gets vs %d puts", gets, puts)
			}
		})
	}
}

// TestDecodeForecastStateRejectsNonFinite: a NaN or ±Inf in the hidden or
// the attribute state of bytes read back from disk, or a value so large
// that its square overflows, would forecast NaN attributes, which
// Sequence.Validate lets through and JSON cannot encode.
// The decoder refuses the state, names the entry, and takes nothing from
// the arena.
func TestDecodeForecastStateRejectsNonFinite(t *testing.T) {
	m := streamTestModel(t)
	st, err := m.Encode(context.Background(), toyGraph(20, 2, 5, 37))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	good, err := EncodeForecastState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		field string // "H" or "attr"
		index int    // -1: every entry
		value float64
	}{
		{"H all NaN", "H", -1, math.NaN()},
		{"H all +Inf", "H", -1, math.Inf(1)},
		{"H one NaN", "H", 37, math.NaN()},
		{"H one -Inf", "H", 159, math.Inf(-1)},
		{"H one near MaxFloat64", "H", 12, 1.7976e308},
		{"attr one NaN", "attr", 5, math.NaN()},
		{"attr one +Inf", "attr", 39, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w forecastStateWire
			if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&w); err != nil {
				t.Fatal(err)
			}
			v := w.H
			if tc.field == "attr" {
				v = w.Attr
			}
			want := fmt.Sprintf("%s[%d]", tc.field, tc.index)
			if tc.index < 0 {
				for i := range v {
					v[i] = tc.value
				}
				want = tc.field + "[0]"
			} else {
				v[tc.index] = tc.value
			}
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(&w); err != nil {
				t.Fatal(err)
			}
			before := tensor.ReadPoolStats()
			_, err := m.DecodeForecastState(bad.Bytes())
			after := tensor.ReadPoolStats()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one naming %s", err, want)
			}
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("rejected state leaked: %d gets vs %d puts", gets, puts)
			}
		})
	}
}

// FuzzDecodeForecastState holds the forecast-state reader to its contract
// on arbitrary bytes: it returns an error, or a state that re-encodes and
// forecasts a valid sequence with finite attributes. It never panics.
// testdata/fuzz/FuzzDecodeForecastState holds the seeds: EncodeForecastState
// bytes of a cold state and of states encoded from one- and five-snapshot
// prefixes, for the same N=20, F=2 model the target decodes with, and two
// it must reject: an all-NaN H and an H holding values near MaxFloat64.
func FuzzDecodeForecastState(f *testing.F) {
	g := toyGraph(20, 2, 6, 11)
	m := New(smallConfig(20, 2))
	if _, err := m.Fit(g); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := m.DecodeForecastState(data)
		if err != nil {
			return
		}
		defer st.Release()
		again, err := EncodeForecastState(st)
		if err != nil {
			t.Fatalf("a decoded state does not re-encode: %v", err)
		}
		st2, err := m.DecodeForecastState(again)
		if err != nil {
			t.Fatalf("a re-encoded state does not decode: %v", err)
		}
		st2.Release()
		seq, err := m.Forecast(context.Background(), st, GenOptions{T: 2, Seed: 3})
		if err != nil {
			t.Fatalf("Forecast from a decoded state: %v", err)
		}
		if err := seq.Validate(); err != nil {
			t.Fatalf("forecast from a decoded state fails Validate: %v", err)
		}
		for tt, s := range seq.Snapshots {
			for i, x := range s.X.Data {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("snapshot %d attribute %d = %v", tt, i, x)
				}
			}
		}
	})
}

// TestForecastStatePersistenceEdgesSurvive ensures the temporal-persistence
// snapshot (prev) round-trips: with no prev the decode must also have none.
func TestForecastStatePersistenceEdgesSurvive(t *testing.T) {
	m := streamTestModel(t)
	st := m.NewForecastState()
	defer st.Release()
	snap := dyngraph.NewSnapshot(20, 0)
	snap.AddEdge(1, 2)
	snap.AddEdge(2, 3)
	snap.AddEdge(17, 4)
	if err := m.EncodeSnapshot(st, snap); err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeForecastState(st)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := m.DecodeForecastState(blob)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Release()
	if restored.prev == nil {
		t.Fatal("persistence snapshot lost in round trip")
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {17, 4}} {
		if !restored.prev.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %d->%d missing from restored persistence snapshot", e[0], e[1])
		}
	}
	if restored.prev.NumEdges() != st.prev.NumEdges() {
		t.Fatalf("restored prev has %d edges, want %d", restored.prev.NumEdges(), st.prev.NumEdges())
	}
}
