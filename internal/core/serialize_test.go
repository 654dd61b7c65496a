package core

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"vrdag/internal/dyngraph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := toyGraph(12, 2, 3, 44)
	m := New(smallConfig(12, 2))
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Trained() {
		t.Fatal("loaded model must keep trained flag")
	}
	if m2.NumParams() != m.NumParams() {
		t.Fatalf("param count changed: %d vs %d", m2.NumParams(), m.NumParams())
	}
	// Generation from the restored model must reproduce the original's
	// output exactly for the same seed.
	a, err := m.GenerateOpts(GenOptions{T: 3, Seed: 9, Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.GenerateOpts(GenOptions{T: 3, Seed: 9, Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		sa, sb := a.At(tt), b.At(tt)
		if sa.NumEdges() != sb.NumEdges() {
			t.Fatalf("t=%d: edge counts differ after round-trip (%d vs %d)",
				tt, sa.NumEdges(), sb.NumEdges())
		}
		for u := 0; u < sa.N; u++ {
			for _, v := range sa.Out[u] {
				if !sb.HasEdge(u, v) {
					t.Fatalf("t=%d: edge %d->%d missing after round-trip", tt, u, v)
				}
			}
		}
		if !sa.X.Equal(sb.X, 1e-12) {
			t.Fatalf("t=%d: attributes differ after round-trip", tt)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage input must fail")
	}
}

func TestSaveUntrainedModel(t *testing.T) {
	m := New(smallConfig(8, 1))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Trained() {
		t.Fatal("untrained flag must survive round-trip")
	}
}

// TestSaveDeterministicBytes pins the serialization property the
// bit-identity tests rely on: two Save calls on the same model produce
// identical bytes.
func TestSaveDeterministicBytes(t *testing.T) {
	g := toyGraph(10, 1, 3, 53)
	m := New(smallConfig(10, 1))
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := m.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Save calls on one model produced different bytes")
	}
}

// TestLoadCheckpointWithRetiredConfigFields pins that a checkpoint written
// before a Config field was retired still loads: testdata/model_pr21.gob
// is the Save output of the commit before PR 23 (toyGraph(10,1,3,53) on
// smallConfig(10,1)), whose gob descriptor still lists Config.TapeSched
// and Config.CheckpointEvery, both since retired.
// gob skips stream fields the receiver lacks, so the loaded model must be
// the model this build trains from the same inputs: same Save bytes (the
// new descriptor aside, nothing in the file changed) and the same
// generated sequence, byte for byte.
func TestLoadCheckpointWithRetiredConfigFields(t *testing.T) {
	old, err := os.ReadFile("testdata/model_pr21.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte("TapeSched")) {
		t.Fatal("fixture no longer carries the retired field; regenerate it from the pre-PR-23 commit")
	}
	loaded, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Load of a pre-PR-23 checkpoint: %v", err)
	}
	if !loaded.Trained() {
		t.Fatal("loaded model must keep trained flag")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fixture was trained on amd64; other architectures may contract multiply-adds differently")
	}

	fresh := New(smallConfig(10, 1))
	if _, err := fresh.Fit(toyGraph(10, 1, 3, 53)); err != nil {
		t.Fatal(err)
	}
	saved := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(saved(loaded), saved(fresh)) {
		t.Fatal("re-saved fixture differs from a model trained the same way at this build")
	}
	generated := func(m *Model) []byte {
		seq, err := m.Generate(3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dyngraph.Save(&buf, seq); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(generated(loaded), generated(fresh)) {
		t.Fatal("Generate(3) from the fixture differs from a model trained the same way at this build")
	}
}
