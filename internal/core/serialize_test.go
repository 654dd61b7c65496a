package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
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
// is the Save output of an older build (toyGraph(10,1,3,53) on
// smallConfig(10,1)), whose gob descriptor still lists four Config fields
// since retired: TapeSched, CheckpointEvery, and the resume-checkpoint
// knobs CheckpointPath and CheckpointEveryEpochs.
// gob skips stream fields the receiver lacks, so the loaded model must be
// the model this build trains from the same inputs: same Save bytes (the
// new descriptor aside, nothing in the file changed) and the same
// generated sequence, byte for byte.
func TestLoadCheckpointWithRetiredConfigFields(t *testing.T) {
	old, err := os.ReadFile("testdata/model_pr21.gob")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"TapeSched", "CheckpointPath", "CheckpointEveryEpochs"} {
		if !bytes.Contains(old, []byte(field)) {
			t.Fatalf("fixture no longer carries the retired field %s; it must be a Save output from before that field was retired", field)
		}
	}
	loaded, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Load of a checkpoint with retired fields: %v", err)
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

// TestLoadRejectsCorruptState feeds Load gob-encoded states that a valid
// model's state was corrupted into. Each must come back as an error: a
// parameter with too few or too many values must not load over the random
// initial weights, and a configuration New cannot build must not panic.
func TestLoadRejectsCorruptState(t *testing.T) {
	m := New(smallConfig(8, 1))
	cases := []struct {
		name    string
		corrupt func(*modelState)
	}{
		{"short data", func(st *modelState) { st.Params[0].Data = st.Params[0].Data[:1] }},
		{"long data", func(st *modelState) { st.Params[0].Data = append(st.Params[0].Data, 0) }},
		{"N = 0", func(st *modelState) { st.Cfg.N = 0 }},
		{"N < 0", func(st *modelState) { st.Cfg.N = -3 }},
		{"negative HiddenDim", func(st *modelState) { st.Cfg.HiddenDim = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := m.state()
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(&st)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if _, err := Load(&buf); err == nil {
				t.Fatal("Load accepted a corrupt state")
			}
		})
	}
}

// TestConfigFields pins Config's knobs by name. A field added or removed
// must update this list, with the reason in the change that does it.
func TestConfigFields(t *testing.T) {
	want := []string{
		"N", "F",
		"HiddenDim", "LatentDim", "EncoderDim", "TimeDim", "K",
		"EncoderLayers", "MLPLayers",
		"Epochs", "LR", "KLWeight", "SCEAlpha", "NegSamples", "GradClip",
		"NeighborSample", "TBPTT",
		"BiFlow", "UseSCE", "UseTime2Vec",
		"CandidateCap", "DegreeCalibration",
		"Seed",
	}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Config fields = %v, want the %d in %v", got, len(want), want)
	}
}

// TestLoadRejectsMisSizedStatistics: a trained model's calibration
// statistics of the wrong length are a Load error. Before the check, a
// file whose AttrMean and AttrStd were one value long for F = 3 loaded,
// and the first GenerateOpts panicked with an index out of range.
func TestLoadRejectsMisSizedStatistics(t *testing.T) {
	m := New(smallConfig(10, 3))
	if _, err := m.Fit(toyGraph(10, 3, 3, 61)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(*modelState)
	}{
		{"intact", func(*modelState) {}},
		{"AttrMean and AttrStd short", func(st *modelState) { st.AttrMean, st.AttrStd = st.AttrMean[:1], st.AttrStd[:1] }},
		{"AttrStd short", func(st *modelState) { st.AttrStd = st.AttrStd[:2] }},
		{"AttrRho long", func(st *modelState) { st.AttrRho = append(st.AttrRho, 0) }},
		{"AttrR2 short", func(st *modelState) { st.AttrR2 = st.AttrR2[:1] }},
		{"AttrCorrChol not FxF", func(st *modelState) { st.AttrCorrChol = st.AttrCorrChol[:8] }},
		{"AttrQuantiles short", func(st *modelState) { st.AttrQuantiles = st.AttrQuantiles[:2] }},
		{"ActiveStats short", func(st *modelState) { st.ActiveStats = st.ActiveStats[:1] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := m.state()
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(&st)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if c.name == "intact" {
				if err != nil {
					t.Fatalf("Load of an intact state: %v", err)
				}
				if _, err := loaded.GenerateOpts(GenOptions{T: 2, Seed: 3}); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				t.Fatal("Load accepted mis-sized calibration statistics")
			}
		})
	}
}

// TestParamCountMatchesNew holds paramCount, which Load consults before
// it builds anything, to what New actually builds, over the Config knobs
// that shape the parameters.
func TestParamCountMatchesNew(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(10, 0),
		smallConfig(10, 3),
		{N: 5},
		{N: 5, F: 2, HiddenDim: 7, LatentDim: 3, EncoderDim: 5, TimeDim: 2, K: 3, EncoderLayers: 3, MLPLayers: 2, UseTime2Vec: true},
		{N: 5, F: 1, HiddenDim: 4, LatentDim: 2, EncoderDim: 6, TimeDim: 5, K: 1, EncoderLayers: 1, MLPLayers: 3},
		{N: 5, F: 4, MLPLayers: -2, BiFlow: true, UseTime2Vec: true},
	} {
		if got, want := paramCount(cfg), New(cfg).NumParams(); got != float64(want) {
			t.Errorf("%+v: paramCount = %v, New builds %d values", cfg, got, want)
		}
	}
}

// TestLoadRejectsOversizedConfigCheaply: a model file whose Config
// declares HiddenDim = 10⁶ is refused before New allocates a parameter.
// Before the check Load built the whole model first, terabytes of it.
func TestLoadRejectsOversizedConfigCheaply(t *testing.T) {
	st, err := New(smallConfig(10, 2)).state()
	if err != nil {
		t.Fatal(err)
	}
	st.Cfg.HiddenDim = 1_000_000
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(&buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a Config far wider than the parameters it holds")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("refusing the file allocated %d MB, want under 64", got>>20)
	}
}

// fuzzModelTooLarge reports whether data decodes to a saved model whose
// Config would have New allocate more than a test process should: a
// width or K above 256, more than 8 layers, F above 64.
func fuzzModelTooLarge(data []byte) bool {
	st, err := readModelState(bytes.NewReader(data))
	if err != nil {
		return false
	}
	c := st.Cfg.withDefaults()
	for _, d := range []int{c.HiddenDim, c.LatentDim, c.EncoderDim, c.TimeDim, c.K, c.F * 4} {
		if d > 256 {
			return true
		}
	}
	return c.EncoderLayers > 8 || c.MLPLayers > 8
}

// FuzzLoadModel holds Load to its contract on arbitrary bytes: it returns
// an error, or a model whose Save bytes Load reads back to a model that
// saves the same bytes. It never panics. testdata/fuzz/FuzzLoadModel holds
// the seeds: the Save bytes of a small trained model and of an untrained
// one.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if fuzzModelTooLarge(data) {
			t.Skip("Config declares a model larger than a test process should allocate")
		}
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved, resaved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		m2, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("Load rejected Save's output of a model it accepted: %v", err)
		}
		if err := m2.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatal("Save→Load→Save changed the bytes")
		}
	})
}
