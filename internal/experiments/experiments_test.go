package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vrdag/internal/datasets"
)

// tiny returns options that keep experiment tests fast.
func tiny() Options { return Options{Scale: 0.015, Seed: 5, Epochs: 2} }

// skipIfShort keeps `go test -short ./...` an inner loop of seconds. It
// marks the four sweeps, ≈ 1.3 s of this package's ≈ 2.5 s on a 2 vCPU
// Xeon, most of it TestFigure10Rows.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipped in -short mode; run `go test ./internal/experiments` for every test")
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func TestTable1EmailIncludesAllMethods(t *testing.T) {
	rows, err := New(tiny()).Table1(datasets.Email)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"GRAN": false, "GenCAT": false, "TagGen": false,
		"Dymond": false, "TGGAN": false, "TIGGER": false, "VRDAG": false}
	for _, r := range rows {
		want[r.Method] = true
		if r.Err == nil {
			rep := r.Report
			for _, v := range []float64{rep.InDegMMD, rep.OutDegMMD, rep.ClusMMD,
				rep.InPLE, rep.OutPLE, rep.Wedge, rep.NC, rep.LCC} {
				if !finite(v) || v < 0 {
					t.Fatalf("%s: bad metric value %v", r.Method, v)
				}
			}
		}
	}
	for m, seen := range want {
		if !seen {
			t.Fatalf("method %s missing from Table 1", m)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "VRDAG") {
		t.Fatal("printout missing VRDAG row")
	}
}

func TestTable1ExcludesDymondOffEmail(t *testing.T) {
	rows, err := New(tiny()).Table1(datasets.Bitcoin)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Method == "Dymond" {
			t.Fatal("Dymond must only run on Email (paper protocol)")
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := New(tiny()).Table2()
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 3 methods
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !finite(r.MAE) || r.MAE < 0 {
			t.Fatalf("bad MAE for %s/%s: %v", r.Dataset, r.Method, r.MAE)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "guarantee") {
		t.Fatal("printout missing guarantee rows")
	}
}

func TestFigure3CoversAllDatasets(t *testing.T) {
	rows, err := New(tiny()).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.Dataset]++
		if !finite(r.JSD) || !finite(r.EMD) || r.JSD < 0 || r.EMD < 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	for _, ds := range datasets.AllNames() {
		if seen[ds] != 3 {
			t.Fatalf("dataset %s has %d rows, want 3", ds, seen[ds])
		}
	}
}

func TestFigures4to6SeriesShape(t *testing.T) {
	series, err := New(tiny()).Figures4to6()
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 3 metrics × 3 lines, in the paper's order.
	if len(series) != 27 {
		t.Fatalf("expected 27 series, got %d", len(series))
	}
	for i, s := range series {
		ds := []string{datasets.Email, datasets.Wiki, datasets.GDELT}[i/9]
		metric := []string{"degree", "clustering", "coreness"}[i/3%3]
		line := []string{"Original", "VRDAG", "TIGGER"}[i%3]
		if s.Dataset != ds || s.Metric != metric || s.Line != line {
			t.Fatalf("series %d is %s/%s/%s, want %s/%s/%s", i, s.Dataset, s.Metric, s.Line, ds, metric, line)
		}
		if len(s.Values) == 0 {
			t.Fatalf("empty series: %s/%s/%s", s.Dataset, s.Metric, s.Line)
		}
		for _, v := range s.Values {
			if !finite(v) || v < 0 {
				t.Fatalf("bad value in %s/%s/%s: %v", s.Dataset, s.Metric, s.Line, v)
			}
		}
	}
	var buf bytes.Buffer
	PrintSeries(&buf, series)
	if !strings.Contains(buf.String(), "coreness") {
		t.Fatal("printout missing coreness series")
	}
}

func TestFigures7to8(t *testing.T) {
	series, err := New(tiny()).Figures7to8()
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 2 metrics × 2 lines
	if len(series) != 12 {
		t.Fatalf("expected 12 series, got %d", len(series))
	}
}

// TestFigure9OrderingVRDAGFastestGeneration checks the paper's headline,
// that VRDAG generates with less work than the walk-based baselines, on
// email alone, by counted multiply-adds rather than wall time: the walk
// skeletons run none of the network they count, so their seconds say
// nothing about the originals. VRDAG must count at most a tenth of
// TagGen's generation work. The six-dataset table is in CI's `vrdag-bench
// -exp all` leg.
func TestFigure9OrderingVRDAGFastestGeneration(t *testing.T) {
	rows, err := New(Options{Scale: 0.015, Seed: 6, Epochs: 2}).timings(nil, replicaKey{dataset: datasets.Email})
	if err != nil {
		t.Fatal(err)
	}
	work := map[string]int64{}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Method, r.Err)
		}
		if r.FitWork <= 0 || r.GenWork <= 0 {
			t.Fatalf("%s: counted work fit=%d gen=%d, want both positive", r.Method, r.FitWork, r.GenWork)
		}
		work[r.Method] = r.GenWork
	}
	if 10*work["VRDAG"] > work["TagGen"] {
		t.Fatalf("VRDAG's generation work (%d) must be at most a tenth of TagGen's (%d)", work["VRDAG"], work["TagGen"])
	}
	var buf bytes.Buffer
	PrintTimings(&buf, rows)
	if !strings.Contains(buf.String(), "GenWork") || !strings.Contains(buf.String(), "walk skeleton") {
		t.Fatal("bad printout")
	}
}

func TestScalabilityRows(t *testing.T) {
	rows, err := New(Options{Scale: 1, Seed: 7, Epochs: 2}).Scalability([]int{1000})
	if err != nil {
		t.Fatal(err)
	}
	// 1 edge target × 4 methods
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Edges < 900 || r.Edges > 1100 {
			t.Fatalf("%s: %d temporal edges, want 1000 ± 10 %%", r.Method, r.Edges)
		}
	}
	var buf bytes.Buffer
	PrintTimings(&buf, rows)
	if !strings.Contains(buf.String(), "#Edges") {
		t.Fatal("bad printout")
	}
}

func TestFigure10Rows(t *testing.T) {
	skipIfShort(t)
	rows, err := New(tiny()).Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 3 methods
	if len(rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.LinkF1 < 0 || r.LinkF1 > 1 || !finite(r.AttrRMSE) {
			t.Fatalf("bad row %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows)
	if !strings.Contains(buf.String(), "No Augmentation") {
		t.Fatal("bad printout")
	}
}

func TestAblationVariants(t *testing.T) {
	skipIfShort(t)
	rows, err := New(tiny()).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 variants, got %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
		for _, v := range []float64{r.InDegMMD, r.ClusMMD, r.AttrJSD, r.SpearMAE} {
			if !finite(v) || v < 0 {
				t.Fatalf("bad ablation value in %s: %v", r.Variant, v)
			}
		}
	}
	if !names["VRDAG (full)"] || !names["w/o bi-flow"] {
		t.Fatalf("missing variants: %v", names)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "Variant") {
		t.Fatal("bad printout")
	}
}

func TestFigure9Sweep(t *testing.T) {
	skipIfShort(t)
	rows, err := New(Options{Scale: 0.01, Seed: 8, Epochs: 1}).Figure9Sweep()
	if err != nil {
		t.Fatal(err)
	}
	// 4 horizons × 4 methods
	if len(rows) != 16 {
		t.Fatalf("expected 16 rows, got %d", len(rows))
	}
	var buf bytes.Buffer
	PrintTimings(&buf, rows)
	if !strings.Contains(buf.String(), "Train(s)") {
		t.Fatal("bad printout")
	}
}

func TestParamAnalysis(t *testing.T) {
	skipIfShort(t)
	rows, err := New(Options{Scale: 0.01, Seed: 9, Epochs: 1}).ParamAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	// 4 + 4 + 4 + 3 sweep points
	if len(rows) != 15 {
		t.Fatalf("expected 15 rows, got %d", len(rows))
	}
	params := map[string]int{}
	for _, r := range rows {
		params[r.Param]++
		if !finite(r.InDegMMD) || !finite(r.AttrJSD) || r.TrainSec <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if params["dz"] != 4 || params["L"] != 3 {
		t.Fatalf("sweep coverage wrong: %v", params)
	}
	var buf bytes.Buffer
	PrintParams(&buf, rows)
	if !strings.Contains(buf.String(), "Param") {
		t.Fatal("bad printout")
	}
}
