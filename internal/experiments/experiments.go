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
// Every runner is a view of one grid, built by New. The grid fits each
// generator once per key, a replica with a baseline's seed or with
// VRDAG's whole core.Config, and generates once from that fit; runners
// that read the same key read the same sequence, and every seconds column
// times that one fit.
//
// The runners print the scores each generator reaches on the replicas at
// the scale run, against the replica it was trained on. Scale < 1 shrinks
// the replicas so the full suite runs on a laptop, and at ×0.05 the
// ablation and Fig. 10 do not show the paper's ordering (ROADMAP finding
// (xiii)). ROADMAP items 29 and 30 set out what each number is to be
// measured against: an independent draw of the same replica, and several
// seeds.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"vrdag/internal/baselines"
	"vrdag/internal/baselines/dymond"
	"vrdag/internal/baselines/gencat"
	"vrdag/internal/baselines/gran"
	"vrdag/internal/baselines/normalattr"
	"vrdag/internal/baselines/walker"
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

// replicaKey names one training sequence at the grid's scale and seed: a
// dataset's replica cut to its first t snapshots (0 keeps all), or, with
// edges > 0, the GDELT replica of Tables III/IV with that many temporal
// edges.
type replicaKey struct {
	dataset  string
	t, edges int
}

// gen names one generator: a baseline by its Name() and seed, or VRDAG
// by the change mutate makes to its default configuration (nil for none).
type gen struct {
	method string
	seed   int64
	mutate func(*core.Config)
}

const vrdagMethod = "VRDAG"

var vrdag = gen{method: vrdagMethod}

// cellKey names one fit. core.Config has only scalar fields, so VRDAG is
// keyed by its whole configuration; a baseline by its name and seed.
type cellKey struct {
	replica replicaKey
	method  string
	seed    int64
	cfg     core.Config
}

// cell is what one fit leaves: the sequence generated from it, as many
// snapshots as its replica has, the seconds of the fit and of the
// generation, and their counted work. Runners only read it.
type cell struct {
	synth            *dyngraph.Sequence
	fitSec, genSec   float64
	fitWork, genWork int64
	skeleton         bool // a walk skeleton made it
	err              error
}

// grid memoises the replicas and cells of one Options.
type grid struct {
	o        Options
	replicas map[replicaKey]*dyngraph.Sequence
	cells    map[cellKey]*cell
	fits     int // generators fitted, read by the tests
}

// New returns the grid that every runner of one invocation shares. Its
// runners are Table1, Table2, Figure3, Figures4to6, Figures7to8, Figure9,
// Figure9Sweep, Scalability, Figure10, Ablation and ParamAnalysis. It is
// not safe for concurrent use.
func New(o Options) *grid {
	return &grid{o: o.withDefaults(),
		replicas: map[replicaKey]*dyngraph.Sequence{}, cells: map[cellKey]*cell{}}
}

// replica returns the sequence rk names, building it on first use.
func (g *grid) replica(rk replicaKey) (*dyngraph.Sequence, error) {
	if s, ok := g.replicas[rk]; ok {
		return s, nil
	}
	var s *dyngraph.Sequence
	var err error
	switch {
	case rk.edges > 0:
		s, err = gdeltWithEdges(rk.edges, g.o.Seed)
	case rk.t > 0:
		if s, err = g.replica(replicaKey{dataset: rk.dataset}); err == nil {
			s = &dyngraph.Sequence{N: s.N, F: s.F, Snapshots: s.Snapshots[:rk.t:rk.t]}
		}
	default:
		s, _, err = datasets.Replica(rk.dataset, g.o.Scale, g.o.Seed)
	}
	if err != nil {
		return nil, err
	}
	g.replicas[rk] = s
	return s, nil
}

// cell returns replica rk and gen's cell on it, fitting gen on first use.
// A fit or generate error is the cell's; only a replica error is returned.
func (g *grid) cell(rk replicaKey, gen gen) (*dyngraph.Sequence, *cell, error) {
	orig, err := g.replica(rk)
	if err != nil {
		return nil, nil, err
	}
	key := cellKey{replica: rk, method: gen.method, seed: gen.seed}
	if gen.method == vrdagMethod {
		key.cfg = core.DefaultConfig(orig.N, orig.F)
		key.cfg.Epochs, key.cfg.Seed = g.o.Epochs, g.o.Seed
		if orig.N <= 256 {
			key.cfg.CandidateCap = 0 // exact decoding on small replicas
		}
		if gen.mutate != nil {
			gen.mutate(&key.cfg)
		}
	}
	c, ok := g.cells[key]
	if !ok {
		c = fit(orig, key)
		g.cells[key] = c
		g.fits++
	}
	return orig, c, nil
}

// generated is cell for a runner that cannot go on without the sequence:
// the cell's error becomes its own.
func (g *grid) generated(rk replicaKey, gen gen) (*dyngraph.Sequence, *cell, error) {
	orig, c, err := g.cell(rk, gen)
	if err == nil && c.err != nil {
		err = fmt.Errorf("%s on %s: %w", gen.method, rk.dataset, c.err)
	}
	return orig, c, err
}

// fit fits the generator key names on orig and generates orig.T()
// snapshots from it, timing both calls and counting their work.
func fit(orig *dyngraph.Sequence, key cellKey) *cell {
	c := &cell{}
	var m *core.Model
	var b baselines.Generator
	start := time.Now()
	if key.method == vrdagMethod {
		m = core.New(key.cfg)
		_, c.err = m.Fit(orig)
	} else {
		b = newBaseline(key.method, key.seed)
		c.err = b.Fit(orig)
	}
	if c.err != nil {
		return c
	}
	c.fitSec = time.Since(start).Seconds()
	start = time.Now()
	if m != nil {
		c.synth, c.err = m.Generate(orig.T())
	} else {
		c.synth, c.err = b.Generate(orig.T())
	}
	if c.err != nil {
		return c
	}
	c.genSec = time.Since(start).Seconds()
	if w, ok := b.(workCounter); ok {
		c.fitWork, c.genWork = w.Work()
		c.skeleton = true
	} else if m != nil {
		c.fitWork, c.genWork = vrdagWork(m, orig, c.synth)
	}
	return c
}

// newBaseline builds a baseline from the name its rows print and its seed.
func newBaseline(method string, seed int64) baselines.Generator {
	switch method {
	case "GRAN":
		return gran.New(gran.Config{Seed: seed})
	case "GenCAT":
		return gencat.New(gencat.Config{Seed: seed})
	case "Dymond":
		return dymond.New(dymond.Config{Seed: seed})
	case "Normal":
		return normalattr.New(normalattr.Config{Seed: seed})
	case "TagGen":
		return walker.NewTagGen(seed)
	case "TGGAN":
		return walker.NewTGGAN(seed)
	case "TIGGER":
		return walker.NewTIGGER(seed)
	}
	panic("experiments: no baseline " + method)
}

// structureGens returns the Table-I comparison set. Dymond is included
// only for the Email dataset, as in the paper.
func structureGens(dataset string, seed int64) []gen {
	gens := []gen{{"GRAN", seed + 1, nil}, {"GenCAT", seed + 2, nil}, {"TagGen", seed + 3, nil}}
	if dataset == datasets.Email {
		gens = append(gens, gen{"Dymond", seed + 4, nil})
	}
	return append(gens, gen{"TGGAN", seed + 5, nil}, gen{"TIGGER", seed + 6, nil}, vrdag)
}

// Table1Row is one generator's row of Table I.
type Table1Row struct {
	Dataset string
	Method  string
	Report  metrics.StructureReport
	Err     error // set when a generator cannot run (e.g. Dymond at scale)

	skeleton bool // a walk skeleton made the row
}

// workCounter is a generator that counts its original's network work
// instead of running it: the walk skeletons of TIGGER, TG-GAN and TagGen.
type workCounter interface{ Work() (fit, gen int64) }

// Table1 reproduces the structure-generation comparison for one dataset.
func (g *grid) Table1(dataset string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, gen := range structureGens(dataset, g.o.Seed) {
		orig, c, err := g.cell(replicaKey{dataset: dataset}, gen)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Dataset: dataset, Method: gen.method, Err: c.err, skeleton: c.skeleton}
		if c.err == nil {
			row.Report = metrics.CompareStructure(orig, c.synth)
		}
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

// attributeGens returns the Fig. 3 / Table II comparison set.
func attributeGens(seed int64) []gen {
	return []gen{{"Normal", seed + 11, nil}, {"GenCAT", seed + 12, nil}, vrdag}
}

// Table2 reproduces the Spearman-correlation MAE comparison on the two
// multi-attribute datasets (Email, Guarantee).
func (g *grid) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, ds := range []string{datasets.Email, datasets.Guarantee} {
		rk := replicaKey{dataset: ds}
		orig, err := g.replica(rk)
		if err != nil {
			return nil, err
		}
		realRows := metrics.AttributeRows(orig)
		for _, gen := range attributeGens(g.o.Seed) {
			_, c, err := g.generated(rk, gen)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Dataset: ds, Method: gen.method,
				MAE: metrics.SpearmanMAE(realRows, metrics.AttributeRows(c.synth)),
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
func (g *grid) Figure3() ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, ds := range datasets.AllNames() {
		for _, gen := range attributeGens(g.o.Seed) {
			orig, c, err := g.generated(replicaKey{dataset: ds}, gen)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{
				Dataset: ds, Method: gen.method,
				JSD: metrics.AttrJSD(orig, c.synth, 32),
				EMD: metrics.AttrEMD(orig, c.synth),
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
// paper's three representative datasets (Email, Wiki, GDELT), in the
// paper's order: degree, clustering, coreness.
func (g *grid) Figures4to6() ([]DiffSeries, error) {
	props := []struct {
		name string
		of   func(*dyngraph.Snapshot) []float64
	}{
		{"degree", metrics.TotalDegrees},
		{"clustering", metrics.ClusteringCoefficients},
		{"coreness", metrics.Coreness},
	}
	var out []DiffSeries
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		orig, v, err := g.generated(replicaKey{dataset: ds}, vrdag)
		if err != nil {
			return nil, err
		}
		_, tg, err := g.generated(replicaKey{dataset: ds}, gen{"TIGGER", g.o.Seed + 21, nil})
		if err != nil {
			return nil, err
		}
		for _, p := range props {
			out = append(out,
				DiffSeries{ds, "Original", p.name, metrics.DifferenceSeries(orig, p.of)},
				DiffSeries{ds, "VRDAG", p.name, metrics.DifferenceSeries(v.synth, p.of)},
				DiffSeries{ds, "TIGGER", p.name, metrics.DifferenceSeries(tg.synth, p.of)},
			)
		}
	}
	return out, nil
}

// Figures7to8 reproduces the temporal attribute-difference plots
// (Original vs VRDAG only; no attribute-capable dynamic baseline exists).
func (g *grid) Figures7to8() ([]DiffSeries, error) {
	var out []DiffSeries
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		orig, v, err := g.generated(replicaKey{dataset: ds}, vrdag)
		if err != nil {
			return nil, err
		}
		oMAE, oRMSE := metrics.AttrDifferenceSeries(orig)
		vMAE, vRMSE := metrics.AttrDifferenceSeries(v.synth)
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

	skeleton bool // a walk skeleton made the row
}

// timings appends to rows the cost of each Fig. 9 generator on replica
// rk, read from the cell that made its fit.
func (g *grid) timings(rows []TimingRow, rk replicaKey) ([]TimingRow, error) {
	for _, gen := range []gen{vrdag, {"TIGGER", g.o.Seed + 31, nil},
		{"TGGAN", g.o.Seed + 32, nil}, {"TagGen", g.o.Seed + 33, nil}} {
		orig, c, err := g.cell(rk, gen)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TimingRow{Dataset: rk.dataset, Method: gen.method,
			T: orig.T(), Edges: orig.TotalTemporalEdges(), TrainSec: c.fitSec, GenSec: c.genSec,
			FitWork: c.fitWork, GenWork: c.genWork, Err: c.err, skeleton: c.skeleton})
	}
	return rows, nil
}

// firstErr returns the first row's error, naming the row.
func firstErr(rows []TimingRow) error {
	for _, r := range rows {
		if r.Err != nil {
			return fmt.Errorf("%s on %s T=%d M=%d: %w", r.Method, r.Dataset, r.T, r.Edges, r.Err)
		}
	}
	return nil
}

// Figure9 measures training and generation cost on every dataset.
func (g *grid) Figure9() ([]TimingRow, error) {
	var rows []TimingRow
	for _, ds := range datasets.AllNames() {
		var err error
		if rows, err = g.timings(rows, replicaKey{dataset: ds}); err != nil {
			return nil, err
		}
	}
	return rows, nil
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
func (g *grid) Figure9Sweep() ([]TimingRow, error) {
	var rows []TimingRow
	for _, tt := range []int{5, 15, 25, 35} {
		var err error
		if rows, err = g.timings(rows, replicaKey{dataset: datasets.Bitcoin, t: tt}); err != nil {
			return nil, err
		}
	}
	if err := firstErr(rows); err != nil {
		return nil, fmt.Errorf("fig9sweep: %w", err)
	}
	return rows, nil
}

// Scalability reproduces Tables III and IV: running time against the
// number of temporal edges sampled from the GDELT replica. edgeTargets
// defaults to {1k, 10k} at small scale; pass the paper's {1e3, 1e4, 1e5,
// 5e5} for the full experiment. Each row's replica carries its target's
// temporal edges within ±10 %.
func (g *grid) Scalability(edgeTargets []int) ([]TimingRow, error) {
	if len(edgeTargets) == 0 {
		edgeTargets = []int{1000, 10000}
	}
	var rows []TimingRow
	for _, target := range edgeTargets {
		var err error
		if rows, err = g.timings(rows, replicaKey{dataset: datasets.GDELT, edges: target}); err != nil {
			return nil, err
		}
	}
	if err := firstErr(rows); err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	return rows, nil
}

// gdeltWithEdges builds the GDELT replica of one Tables III/IV row. Its
// temporal edges do not follow the scale in proportion (seed 6 gives 544
// at the scale a linear rule picks for 1 000), so the scale is corrected
// by the measured count until the replica lands within ±10 % of target.
// The count also jumps by up to ±15 % between neighbouring scales, so each
// correction is damped more than the one before (its i-th root), or two
// scales on either side of the target could trade places forever.
func gdeltWithEdges(target int, seed int64) (*dyngraph.Sequence, error) {
	const fullEdges = 566735.0 // the paper's GDELT
	scale := float64(target) / fullEdges
	for i := 1; i <= 8; i++ {
		g, _, err := datasets.Replica(datasets.GDELT, scale, seed)
		if err != nil {
			return nil, err
		}
		m := g.TotalTemporalEdges()
		if math.Abs(float64(m-target)) <= 0.1*float64(target) {
			return g, nil
		}
		scale *= math.Pow(float64(target)/float64(max(m, 1)), 1/float64(i))
	}
	return nil, fmt.Errorf("scalability: no GDELT replica within 10%% of %d temporal edges", target)
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
func (g *grid) Figure10() ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, ds := range []string{datasets.Email, datasets.Wiki, datasets.GDELT} {
		dcfg := downstream.Config{Epochs: 20, Seed: g.o.Seed + 41}
		orig, v, err := g.generated(replicaKey{dataset: ds}, vrdag)
		if err != nil {
			return nil, err
		}
		_, gc, err := g.generated(replicaKey{dataset: ds}, gen{"GenCAT", g.o.Seed + 42, nil})
		if err != nil {
			return nil, err
		}
		base, aug, err := downstream.RunCaseStudy(orig, dcfg, v.synth, gc.synth)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Fig10Row{ds, "No Augmentation", base.LinkF1, base.AttrRMSE},
			Fig10Row{ds, "VRDAG", aug[0].LinkF1, aug[0].AttrRMSE},
			Fig10Row{ds, "GenCAT", aug[1].LinkF1, aug[1].AttrRMSE},
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
func (g *grid) Ablation() ([]AblationRow, error) {
	orig, err := g.replica(replicaKey{dataset: datasets.Email})
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"VRDAG (full)", nil},
		{"w/o bi-flow", func(c *core.Config) { c.BiFlow = false }},
		{"K=1", func(c *core.Config) { c.K = 1 }},
		{"MSE loss", func(c *core.Config) { c.UseSCE = false }},
		{"w/o Time2Vec", func(c *core.Config) { c.UseTime2Vec = false }},
	}
	realRows := metrics.AttributeRows(orig)
	var out []AblationRow
	for _, v := range variants {
		_, c, err := g.generated(replicaKey{dataset: datasets.Email}, gen{method: vrdagMethod, mutate: v.mutate})
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		rep := metrics.CompareStructure(orig, c.synth)
		out = append(out, AblationRow{
			Variant:  v.name,
			InDegMMD: rep.InDegMMD,
			ClusMMD:  rep.ClusMMD,
			AttrJSD:  metrics.AttrJSD(orig, c.synth, 32),
			SpearMAE: metrics.SpearmanMAE(realRows, metrics.AttributeRows(c.synth)),
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
			p.InPLE, p.OutPLE, p.Wedge, p.NC, p.LCC, skeletonNote(r.skeleton))
	}
}

// skeletonNote labels the rows of the model-free walk samplers that stand
// for TIGGER, TG-GAN and TagGen.
func skeletonNote(skeleton bool) string {
	if skeleton {
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
			float64(r.FitWork), float64(r.GenWork), skeletonNote(r.skeleton))
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
