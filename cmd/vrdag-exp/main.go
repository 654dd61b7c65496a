// Command vrdag-exp regenerates the paper's tables and figures on the
// seeded dataset replicas.
//
//	vrdag-exp -exp table1 -dataset email -scale 0.05
//	vrdag-exp -exp fig9 -scale 0.05
//	vrdag-exp -exp all  -scale 0.02 -epochs 5
//
// Experiments: table1 table2 fig3 fig4 fig7 fig9 fig9sweep table3 table4
// fig10 params ablation all. Scale 1 reproduces the Table-I dataset sizes
// (slow on CPU). One invocation fits each generator once per (replica,
// configuration): every table that needs that fit, under -exp all too,
// reads the one sequence it generated, and every seconds column times
// that one fit and its generation.
//
// TIGGER, TG-GAN and TagGen are model-free walk skeletons of the
// originals' sampling, labelled "walk skeleton" in every table. Fig. 9 and
// Tables III/IV print measured seconds beside counted multiply-adds: the
// skeletons' seconds time their sampling alone, and their work column
// counts the networks the originals would run, which nothing here runs.
//
// Performance is measured by the benchmark in bench/ (go run -C bench .),
// not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"vrdag/internal/datasets"
	"vrdag/internal/experiments"
)

// experimentNames is every -exp value main runs something for.
var experimentNames = []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig9sweep", "table3", "table4", "fig10", "params", "ablation", "all"}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, " "))
		dataset = flag.String("dataset", "", "dataset for table1 (default: all six)")
		scale   = flag.Float64("scale", 0.05, "replica scale factor (1 = paper size)")
		seed    = flag.Int64("seed", 1, "random seed")
		epochs  = flag.Int("epochs", 10, "VRDAG training epochs")
	)
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "vrdag-exp: unknown -exp %q; valid: %s\n", *exp, strings.Join(experimentNames, " "))
		os.Exit(2)
	}

	g := experiments.New(experiments.Options{Scale: *scale, Seed: *seed, Epochs: *epochs})
	want := func(names ...string) bool { return *exp == "all" || slices.Contains(names, *exp) }

	if want("table1") {
		names := datasets.AllNames()
		if *dataset != "" {
			names = []string{*dataset}
		}
		for _, ds := range names {
			section("Table I — "+ds, *scale, func() ([]experiments.Table1Row, error) { return g.Table1(ds) },
				experiments.PrintTable1)
		}
	}
	if want("table2") {
		section("Table II — Spearman correlation MAE", *scale, g.Table2, experiments.PrintTable2)
	}
	if want("fig3") {
		section("Figure 3 — attribute JSD/EMD", *scale, g.Figure3, experiments.PrintFig3)
	}
	if want("fig4", "fig5", "fig6") {
		section("Figures 4-6 — temporal structure differences", *scale, g.Figures4to6, experiments.PrintSeries)
	}
	if want("fig7", "fig8") {
		section("Figures 7-8 — temporal attribute differences", *scale, g.Figures7to8, experiments.PrintSeries)
	}
	if want("fig9") {
		section("Figure 9(a,b) — training/generation time and work", *scale, g.Figure9, experiments.PrintTimings)
	}
	if want("fig9sweep") {
		section("Figure 9(c,d) — time and work vs timesteps (Bitcoin)", *scale, g.Figure9Sweep, experiments.PrintTimings)
	}
	if want("table3", "table4") {
		targets := []int{1000, 10000}
		if *scale >= 1 {
			targets = []int{1000, 10000, 100000, 500000}
		}
		section("Tables III/IV — scalability vs #edges (GDELT)", *scale,
			func() ([]experiments.TimingRow, error) { return g.Scalability(targets) }, experiments.PrintTimings)
	}
	if want("fig10") {
		section("Figure 10 — downstream augmentation case study", *scale, g.Figure10, experiments.PrintFig10)
	}
	if want("params") {
		section("Parameter analysis (Appendix A-F) — Email", *scale, g.ParamAnalysis, experiments.PrintParams)
	}
	if want("ablation") {
		section("Ablation (Appendix A-E) — Email", *scale, g.Ablation, experiments.PrintAblation)
	}
}

// section prints one experiment's header, then its rows, or exits on the
// error that stopped it.
func section[R any](name string, scale float64, rows func() ([]R, error), print func(io.Writer, []R)) {
	fmt.Printf("\n=== %s (scale %g) ===\n", name, scale)
	r, err := rows()
	if err != nil {
		log.Fatalf("vrdag-exp: %s: %v", name, err)
	}
	print(os.Stdout, r)
}
