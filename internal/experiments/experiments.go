// Package experiments reproduces every table and figure of the paper's
// evaluation section on the seeded dataset replicas:
//
//	Table I    — 8 structure metrics × datasets × generators
//	Table II   — Spearman-correlation MAE of attributes
//	Fig. 3     — attribute JSD / EMD (VRDAG vs GenCAT vs Normal)
//	Figs. 4-6  — temporal structure differences (degree/clustering/coreness)
//	Figs. 7-8  — temporal attribute differences (MAE/RMSE)
//	Fig. 9     — training/generation wall time and counted work (+ timestep sweep)
//	Tables III/IV — the same against temporal edge count
//	Fig. 10    — downstream augmentation case study
//	Ablations  — bi-flow, mixture size, SCE, Time2Vec (Appendix A-E)
//
// Each runner returns structured results and can render the same rows the
// paper reports. Scale < 1 shrinks the replicas so the full suite runs on
// a laptop; the shapes (who wins, by roughly what factor) are preserved.
package experiments

import (
	"fmt"
	"io"
	"time"

	"vrdag/internal/baselines"
	"vrdag/internal/baselines/dymond"
	"vrdag/internal/baselines/gencat"
	"vrdag/internal/baselines/gran"
	"vrdag/internal/baselines/normalattr"
	"vrdag/internal/baselines/taggen"
	"vrdag/internal/baselines/tggan"
	"vrdag/internal/baselines/tigger"
	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/downstream"
	"vrdag/internal/dyngraph"
	"vrdag/internal/metrics"
	"vrdag/internal/textplot"
)

// Options configures an experiment run.
type Options struct {
	Scale  float64 // dataset scale factor (1 = Table-I sizes; default 0.05)
	Seed   int64
	Epochs int // VRDAG training epochs (default 10 at small scale)
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Epochs == 0 {
		o.Epochs = 10
	}
	return o
}

// vrdagFor builds and trains a VRDAG model for a replica.
func vrdagFor(g *dyngraph.Sequence, o Options) (*core.Model, error) {
	cfg := core.DefaultConfig(g.N, g.F)
	cfg.Epochs = o.Epochs
	cfg.Seed = o.Seed
	if g.N <= 256 {
		cfg.CandidateCap = 0 // exact decoding on small replicas
	}
	m := core.New(cfg)
	if _, err := m.Fit(g); err != nil {
		return nil, err
	}
	return m, nil
}

// vrdagGenerator adapts core.Model to the baselines.Generator interface so
// the harness can treat every method uniformly.
type vrdagGenerator struct {
	o Options
	m *core.Model
}

func (v *vrdagGenerator) Name() string { return "VRDAG" }

func (v *vrdagGenerator) Fit(g *dyngraph.Sequence) error {
	m, err := vrdagFor(g, v.o)
	if err != nil {
		return err
	}
	v.m = m
	return nil
}

func (v *vrdagGenerator) Generate(t int) (*dyngraph.Sequence, error) {
	if v.m == nil {
		return nil, fmt.Errorf("experiments: VRDAG Generate before Fit")
	}
	return v.m.Generate(t)
}

// NewVRDAG returns the paper's model wrapped as a Generator.
func NewVRDAG(o Options) baselines.Generator { return &vrdagGenerator{o: o.withDefaults()} }

// structureGenerators returns the Table-I comparison set. Dymond is
// included only for the Email dataset, as in the paper.
func structureGenerators(dataset string, o Options) []baselines.Generator {
	gens := []baselines.Generator{
		gran.New(gran.Config{Seed: o.Seed + 1}),
		gencat.New(gencat.Config{Seed: o.Seed + 2}),
		taggen.New(taggen.Config{Seed: o.Seed + 3}),
	}
	if dataset == datasets.Email {
		gens = append(gens, dymond.New(dymond.Config{Seed: o.Seed + 4}))
	}
	gens = append(gens,
		tggan.New(tggan.Config{Seed: o.Seed + 5}),
		tigger.New(tigger.Config{Seed: o.Seed + 6}),
		NewVRDAG(o),
	)
	return gens
}

// Table1Row is one generator's row of Table I.
type Table1Row struct {
	Dataset string
	Method  string
	Report  metrics.StructureReport
	Err     error // set when a generator cannot run (e.g. Dymond at scale)
}

// Table1 reproduces the structure-generation comparison for one dataset.
func Table1(dataset string, o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	orig, _, err := datasets.Replica(dataset, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, gen := range structureGenerators(dataset, o) {
		row := Table1Row{Dataset: dataset, Method: gen.Name()}
		if err := gen.Fit(orig); err != nil {
			row.Err = err
			rows = append(rows, row)
			continue
		}
		synth, err := gen.Generate(orig.T())
		if err != nil {
			row.Err = err
			rows = append(rows, row)
			continue
		}
		row.Report = metrics.CompareStructure(orig, synth)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row is one dataset×method entry of Table II.
type Table2Row struct {
	Dataset string
	Method  string
	MAE     float64
}

// attributeGenerators returns the Fig. 3 / Table II comparison set.
func attributeGenerators(o Options) []baselines.Generator {
	return []baselines.Generator{
		normalattr.New(normalattr.Config{Seed: o.Seed + 11}),
		gencat.New(gencat.Config{Seed: o.Seed + 12}),
		NewVRDAG(o),
	}
}

// Table2 reproduces the Spearman-correlation MAE comparison on the two
// multi-attribute datasets (Email, Guarantee).
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	var rows []Table2Row
	for _, ds := range []string{datasets.Email, datasets.Guarantee} {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		realRows := metrics.AttributeRows(orig)
		for _, gen := range attributeGenerators(o) {
			if err := gen.Fit(orig); err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", ds, gen.Name(), err)
			}
			synth, err := gen.Generate(orig.T())
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", ds, gen.Name(), err)
			}
			rows = append(rows, Table2Row{
				Dataset: ds, Method: gen.Name(),
				MAE: metrics.SpearmanMAE(realRows, metrics.AttributeRows(synth)),
			})
		}
	}
	return rows, nil
}

// Fig3Row is one dataset×method attribute-distribution entry.
type Fig3Row struct {
	Dataset string
	Method  string
	JSD     float64
	EMD     float64
}

// Figure3 reproduces the attribute JSD/EMD comparison on all six datasets.
func Figure3(o Options) ([]Fig3Row, error) {
	o = o.withDefaults()
	var rows []Fig3Row
	for _, ds := range datasets.AllNames() {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, gen := range attributeGenerators(o) {
			if err := gen.Fit(orig); err != nil {
				return nil, fmt.Errorf("fig3 %s/%s: %w", ds, gen.Name(), err)
			}
			synth, err := gen.Generate(orig.T())
			if err != nil {
				return nil, fmt.Errorf("fig3 %s/%s: %w", ds, gen.Name(), err)
			}
			rows = append(rows, Fig3Row{
				Dataset: ds, Method: gen.Name(),
				JSD: metrics.AttrJSD(orig, synth, 32),
				EMD: metrics.AttrEMD(orig, synth),
			})
		}
	}
	return rows, nil
}

// DiffSeries is one line of Figs. 4-8: a per-timestep difference series.
type DiffSeries struct {
	Dataset string
	Line    string // "Original", "VRDAG", "TIGGER"
	Metric  string // "degree", "clustering", "coreness", "mae", "rmse"
	Values  []float64
}

// Figures4to6 reproduces the temporal structure-difference plots on the
// paper's three representative datasets (Email, Wiki, GDELT).
func Figures4to6(o Options) ([]DiffSeries, error) {
	o = o.withDefaults()
	props := map[string]func(*dyngraph.Snapshot) []float64{
		"degree":     metrics.TotalDegrees,
		"clustering": metrics.ClusteringCoefficients,
		"coreness":   metrics.Coreness,
	}
	var out []DiffSeries
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		vg := NewVRDAG(o)
		if err := vg.Fit(orig); err != nil {
			return nil, err
		}
		vSynth, err := vg.Generate(orig.T())
		if err != nil {
			return nil, err
		}
		tg := tigger.New(tigger.Config{Seed: o.Seed + 21})
		if err := tg.Fit(orig); err != nil {
			return nil, err
		}
		tSynth, err := tg.Generate(orig.T())
		if err != nil {
			return nil, err
		}
		for name, prop := range props {
			out = append(out,
				DiffSeries{ds, "Original", name, metrics.DifferenceSeries(orig, prop)},
				DiffSeries{ds, "VRDAG", name, metrics.DifferenceSeries(vSynth, prop)},
				DiffSeries{ds, "TIGGER", name, metrics.DifferenceSeries(tSynth, prop)},
			)
		}
	}
	return out, nil
}

// Figures7to8 reproduces the temporal attribute-difference plots
// (Original vs VRDAG only; no attribute-capable dynamic baseline exists).
func Figures7to8(o Options) ([]DiffSeries, error) {
	o = o.withDefaults()
	var out []DiffSeries
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		vg := NewVRDAG(o)
		if err := vg.Fit(orig); err != nil {
			return nil, err
		}
		synth, err := vg.Generate(orig.T())
		if err != nil {
			return nil, err
		}
		oMAE, oRMSE := metrics.AttrDifferenceSeries(orig)
		vMAE, vRMSE := metrics.AttrDifferenceSeries(synth)
		out = append(out,
			DiffSeries{ds, "Original", "mae", oMAE},
			DiffSeries{ds, "VRDAG", "mae", vMAE},
			DiffSeries{ds, "Original", "rmse", oRMSE},
			DiffSeries{ds, "VRDAG", "rmse", vRMSE},
		)
	}
	return out, nil
}

// TimingRow is one dataset×method cost measurement of Fig. 9 and Tables
// III/IV: measured wall time beside counted work. The walk skeletons
// (TIGGER, TG-GAN, TagGen) run none of the network their work counts, so
// their seconds time the walk sampling alone.
type TimingRow struct {
	Dataset  string
	Method   string
	T        int // snapshots generated
	Edges    int // temporal edges of the training sequence
	TrainSec float64
	GenSec   float64
	FitWork  int64 // multiply-adds counted for the fit
	GenWork  int64 // multiply-adds counted for the generation
	Err      error
}

// efficiencyGenerators returns the Fig. 9 comparison set.
func efficiencyGenerators(o Options) []baselines.Generator {
	return []baselines.Generator{
		NewVRDAG(o),
		tigger.New(tigger.Config{Seed: o.Seed + 31}),
		tggan.New(tggan.Config{Seed: o.Seed + 32}),
		taggen.New(taggen.Config{Seed: o.Seed + 33}),
	}
}

// Figure9 measures training and generation cost on every dataset.
func Figure9(o Options) ([]TimingRow, error) {
	o = o.withDefaults()
	var rows []TimingRow
	for _, ds := range datasets.AllNames() {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, gen := range efficiencyGenerators(o) {
			rows = append(rows, timeOne(ds, gen, orig, orig.T()))
		}
	}
	return rows, nil
}

// timeOne fits gen on orig and generates t snapshots, timing both and
// reading their counted work.
func timeOne(ds string, gen baselines.Generator, orig *dyngraph.Sequence, t int) TimingRow {
	row := TimingRow{Dataset: ds, Method: gen.Name(), T: t, Edges: orig.TotalTemporalEdges()}
	start := time.Now()
	if err := gen.Fit(orig); err != nil {
		row.Err = err
		return row
	}
	row.TrainSec = time.Since(start).Seconds()
	start = time.Now()
	synth, err := gen.Generate(t)
	if err != nil {
		row.Err = err
		return row
	}
	row.GenSec = time.Since(start).Seconds()
	switch g := gen.(type) {
	case interface{ Work() (fit, gen int64) }:
		row.FitWork, row.GenWork = g.Work()
	case *vrdagGenerator:
		row.FitWork, row.GenWork = vrdagWork(g.m, orig, synth)
	}
	return row
}

// vrdagWork counts the multiply-adds of m's fit on train and of its
// generation of synth, by the rules the walk baselines' counts follow: a
// dense layer costs in·out per row, a sparse aggregation nnz·width. It
// reads only m's configuration, its parameter count and the two
// sequences' edge counts.
//
//   - Every step costs N·NumParams() for the per-node layers, d_h·(K+1)
//     per scored pair for the second layers of Eq. 11's heads (K mixture
//     weights, then one component's mean), and nnz·d_h for each sparse
//     aggregation of the encoder: L layers, two flows with BiFlow.
//   - A generated step scores N−1 pairs per node under exact decoding and
//     CandidateCap per node otherwise (an upper bound: a node's candidate
//     set may come up short).
//   - A training step scores its nnz edges and NegSamples non-edges per
//     node. Forward plus backward counts as three forwards, for every
//     step of every epoch.
func vrdagWork(m *core.Model, train, synth *dyngraph.Sequence) (fit, gen int64) {
	c := m.Cfg
	n, dh := int64(c.N), int64(c.HiddenDim)
	spmms := int64(c.EncoderLayers)
	if c.BiFlow {
		spmms *= 2
	}
	step := func(pairs, nnz int64) int64 {
		return n*int64(m.NumParams()) + pairs*dh*int64(c.K+1) + nnz*dh*spmms
	}
	perNode := int64(c.CandidateCap)
	if perNode <= 0 || perNode >= n-1 {
		perNode = n - 1
	}
	for _, s := range synth.Snapshots {
		nnz := int64(s.NumEdges())
		gen += step(n*perNode, nnz)
	}
	for _, s := range train.Snapshots {
		nnz := int64(s.NumEdges())
		fit += 3 * int64(c.Epochs) * step(nnz+n*int64(c.NegSamples), nnz)
	}
	return fit, gen
}

// Figure9Sweep measures running time against the number of timesteps on
// the Bitcoin replica (T ∈ {5, 15, 25, 35}).
func Figure9Sweep(o Options) ([]TimingRow, error) {
	o = o.withDefaults()
	var rows []TimingRow
	for _, tt := range []int{5, 15, 25, 35} {
		full, _, err := datasets.Replica(datasets.Bitcoin, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		// Truncate the replica to tt snapshots.
		orig := &dyngraph.Sequence{N: full.N, F: full.F, Snapshots: full.Snapshots[:tt]}
		for _, gen := range efficiencyGenerators(o) {
			r := timeOne(datasets.Bitcoin, gen, orig, tt)
			if r.Err != nil {
				return nil, fmt.Errorf("fig9sweep %s T=%d: %w", r.Method, tt, r.Err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Scalability reproduces Tables III and IV: running time against the
// number of temporal edges sampled from the GDELT replica. edgeTargets
// defaults to {1k, 10k} at small scale; pass the paper's {1e3, 1e4, 1e5,
// 5e5} for the full experiment.
func Scalability(o Options, edgeTargets []int) ([]TimingRow, error) {
	o = o.withDefaults()
	if len(edgeTargets) == 0 {
		edgeTargets = []int{1000, 10000}
	}
	// Full-size GDELT replica carries ≈566k temporal edges; scale linearly.
	const fullEdges = 566735.0
	var rows []TimingRow
	for _, target := range edgeTargets {
		scale := float64(target) / fullEdges
		orig, _, err := datasets.Replica(datasets.GDELT, scale, o.Seed)
		if err != nil {
			return nil, err
		}
		for _, gen := range efficiencyGenerators(o) {
			r := timeOne(datasets.GDELT, gen, orig, orig.T())
			if r.Err != nil {
				return nil, fmt.Errorf("scalability %s M=%d: %w", r.Method, r.Edges, r.Err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Fig10Row is one dataset×method downstream result.
type Fig10Row struct {
	Dataset  string
	Method   string // "No Augmentation", "VRDAG", "GenCAT"
	LinkF1   float64
	AttrRMSE float64
}

// Figure10 reproduces the augmentation case study on Email, Wiki, GDELT:
// CoEvoGNN trained without augmentation, with VRDAG synthetic data, and
// with GenCAT synthetic data.
func Figure10(o Options) ([]Fig10Row, error) {
	o = o.withDefaults()
	var rows []Fig10Row
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		orig, _, err := datasets.Replica(ds, o.Scale, o.Seed)
		if err != nil {
			return nil, err
		}
		dcfg := downstream.Config{Epochs: 20, Seed: o.Seed + 41}

		vg := NewVRDAG(o)
		if err := vg.Fit(orig); err != nil {
			return nil, err
		}
		vSynth, err := vg.Generate(orig.T())
		if err != nil {
			return nil, err
		}
		base, vAug, err := downstream.RunCaseStudy(orig, vSynth, dcfg)
		if err != nil {
			return nil, err
		}

		gc := gencat.New(gencat.Config{Seed: o.Seed + 42})
		if err := gc.Fit(orig); err != nil {
			return nil, err
		}
		gSynth, err := gc.Generate(orig.T())
		if err != nil {
			return nil, err
		}
		_, gAug, err := downstream.RunCaseStudy(orig, gSynth, dcfg)
		if err != nil {
			return nil, err
		}

		rows = append(rows,
			Fig10Row{ds, "No Augmentation", base.LinkF1, base.AttrRMSE},
			Fig10Row{ds, "VRDAG", vAug.LinkF1, vAug.AttrRMSE},
			Fig10Row{ds, "GenCAT", gAug.LinkF1, gAug.AttrRMSE},
		)
	}
	return rows, nil
}

// AblationRow is one model-variant result on the Email replica.
type AblationRow struct {
	Variant  string
	InDegMMD float64
	ClusMMD  float64
	AttrJSD  float64
	SpearMAE float64
}

// Ablation reconstructs the Appendix A-E study: each row disables one
// design choice of VRDAG (bi-flow encoder, mixture size K, SCE loss,
// Time2Vec) on the Email replica.
func Ablation(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	orig, _, err := datasets.Replica(datasets.Email, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"VRDAG (full)", func(c *core.Config) {}},
		{"w/o bi-flow", func(c *core.Config) { c.BiFlow = false }},
		{"K=1", func(c *core.Config) { c.K = 1 }},
		{"MSE loss", func(c *core.Config) { c.UseSCE = false }},
		{"w/o Time2Vec", func(c *core.Config) { c.UseTime2Vec = false }},
	}
	realRows := metrics.AttributeRows(orig)
	var out []AblationRow
	for _, v := range variants {
		cfg := core.DefaultConfig(orig.N, orig.F)
		cfg.Epochs = o.Epochs
		cfg.Seed = o.Seed
		if orig.N <= 256 {
			cfg.CandidateCap = 0
		}
		v.mutate(&cfg)
		m := core.New(cfg)
		if _, err := m.Fit(orig); err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		synth, err := m.Generate(orig.T())
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		rep := metrics.CompareStructure(orig, synth)
		out = append(out, AblationRow{
			Variant:  v.name,
			InDegMMD: rep.InDegMMD,
			ClusMMD:  rep.ClusMMD,
			AttrJSD:  metrics.AttrJSD(orig, synth, 32),
			SpearMAE: metrics.SpearmanMAE(realRows, metrics.AttributeRows(synth)),
		})
	}
	return out, nil
}

// ---- Rendering ----

// PrintTable1 renders Table-I rows in the paper's column order.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-10s %-8s %9s %9s %9s %8s %8s %8s %8s %8s\n",
		"Dataset", "Method", "In-deg", "Out-deg", "Clus", "In-PLE", "Out-PLE", "Wedge", "NC", "LCC")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(w, "%-10s %-8s  (not run: %v)\n", r.Dataset, r.Method, r.Err)
			continue
		}
		p := r.Report
		fmt.Fprintf(w, "%-10s %-8s %9.4f %9.4f %9.4f %8.4f %8.4f %8.4f %8.4f %8.4f%s\n",
			r.Dataset, r.Method, p.InDegMMD, p.OutDegMMD, p.ClusMMD,
			p.InPLE, p.OutPLE, p.Wedge, p.NC, p.LCC, skeletonNote(r.Method))
	}
}

// skeletonNote labels the rows of the model-free walk samplers that stand
// for TIGGER, TG-GAN and TagGen.
func skeletonNote(method string) string {
	switch method {
	case "TIGGER", "TGGAN", "TagGen":
		return "  walk skeleton"
	}
	return ""
}

// PrintTable2 renders the Spearman MAE table.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %-8s %10s\n", "Dataset", "Method", "SpearMAE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %10.4f\n", r.Dataset, r.Method, r.MAE)
	}
}

// PrintFig3 renders the attribute-distribution figure data.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintf(w, "%-10s %-8s %8s %8s\n", "Dataset", "Method", "JSD", "EMD")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %8.4f %8.4f\n", r.Dataset, r.Method, r.JSD, r.EMD)
	}
}

// PrintSeries renders difference-series lines, appending a sparkline so
// the temporal shape is visible without plotting.
func PrintSeries(w io.Writer, series []DiffSeries) {
	for _, s := range series {
		fmt.Fprintf(w, "%-10s %-10s %-10s %s |", s.Dataset, s.Metric, s.Line, textplot.Spark(s.Values))
		for _, v := range s.Values {
			fmt.Fprintf(w, " %6.4f", v)
		}
		fmt.Fprintln(w)
	}
}

// PrintTimings renders Fig. 9 and Tables III/IV rows: measured seconds
// beside counted multiply-adds.
func PrintTimings(w io.Writer, rows []TimingRow) {
	fmt.Fprintf(w, "%-10s %-8s %4s %8s %10s %12s %10s %10s\n",
		"Dataset", "Method", "T", "#Edges", "Train(s)", "Generate(s)", "FitWork", "GenWork")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(w, "%-10s %-8s  (not run: %v)\n", r.Dataset, r.Method, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %-8s %4d %8d %10.4f %12.4f %10.3g %10.3g%s\n",
			r.Dataset, r.Method, r.T, r.Edges, r.TrainSec, r.GenSec,
			float64(r.FitWork), float64(r.GenWork), skeletonNote(r.Method))
	}
	fmt.Fprintln(w, "Work is counted multiply-adds; a walk skeleton's seconds time its sampling alone.")
}

// PrintFig10 renders the case-study rows.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "%-10s %-16s %8s %9s\n", "Dataset", "Method", "LinkF1", "AttrRMSE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %8.4f %9.4f\n", r.Dataset, r.Method, r.LinkF1, r.AttrRMSE)
	}
}

// PrintAblation renders the ablation rows.
func PrintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-14s %9s %9s %9s %9s\n", "Variant", "In-deg", "Clus", "AttrJSD", "SpearMAE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9.4f %9.4f %9.4f %9.4f\n",
			r.Variant, r.InDegMMD, r.ClusMMD, r.AttrJSD, r.SpearMAE)
	}
}
