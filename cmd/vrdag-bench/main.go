// Command vrdag-bench regenerates the paper's tables and figures on the
// seeded dataset replicas.
//
//	vrdag-bench -exp table1 -dataset email -scale 0.05
//	vrdag-bench -exp fig9 -scale 0.05
//	vrdag-bench -exp all  -scale 0.02 -epochs 5
//
// Experiments: table1 table2 fig3 fig4 fig7 fig9 fig9sweep table3 table4
// fig10 ablation all. Scale 1 reproduces the Table-I dataset sizes (slow
// on CPU); smaller scales preserve the comparative shapes.
//
// Performance is measured by the benchmark in bench/ (go run -C bench .),
// not by this command.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vrdag/internal/datasets"
	"vrdag/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1 table2 fig3 fig4 fig7 fig9 fig9sweep table3 table4 fig10 params ablation all")
		dataset = flag.String("dataset", "", "dataset for table1 (default: all six)")
		scale   = flag.Float64("scale", 0.05, "replica scale factor (1 = paper size)")
		seed    = flag.Int64("seed", 1, "random seed")
		epochs  = flag.Int("epochs", 10, "VRDAG training epochs")
	)
	flag.Parse()

	o := experiments.Options{Scale: *scale, Seed: *seed, Epochs: *epochs}
	w := os.Stdout

	run := func(name string, f func() error) {
		fmt.Fprintf(w, "\n=== %s (scale %g) ===\n", name, *scale)
		if err := f(); err != nil {
			log.Fatalf("vrdag-bench: %s: %v", name, err)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		names := datasets.AllNames()
		if *dataset != "" {
			names = []string{*dataset}
		}
		for _, ds := range names {
			ds := ds
			run("Table I — "+ds, func() error {
				rows, err := experiments.Table1(ds, o)
				if err != nil {
					return err
				}
				experiments.PrintTable1(w, rows)
				return nil
			})
		}
	}
	if want("table2") {
		run("Table II — Spearman correlation MAE", func() error {
			rows, err := experiments.Table2(o)
			if err != nil {
				return err
			}
			experiments.PrintTable2(w, rows)
			return nil
		})
	}
	if want("fig3") {
		run("Figure 3 — attribute JSD/EMD", func() error {
			rows, err := experiments.Figure3(o)
			if err != nil {
				return err
			}
			experiments.PrintFig3(w, rows)
			return nil
		})
	}
	if want("fig4") || want("fig5") || want("fig6") {
		run("Figures 4-6 — temporal structure differences", func() error {
			rows, err := experiments.Figures4to6(o)
			if err != nil {
				return err
			}
			experiments.PrintSeries(w, rows)
			return nil
		})
	}
	if want("fig7") || want("fig8") {
		run("Figures 7-8 — temporal attribute differences", func() error {
			rows, err := experiments.Figures7to8(o)
			if err != nil {
				return err
			}
			experiments.PrintSeries(w, rows)
			return nil
		})
	}
	if want("fig9") {
		run("Figure 9(a,b) — training/generation time", func() error {
			rows, err := experiments.Figure9(o)
			if err != nil {
				return err
			}
			experiments.PrintTimings(w, rows)
			return nil
		})
	}
	if want("fig9sweep") {
		run("Figure 9(c,d) — time vs timesteps (Bitcoin)", func() error {
			rows, err := experiments.Figure9Sweep(o)
			if err != nil {
				return err
			}
			experiments.PrintSweep(w, rows)
			return nil
		})
	}
	if want("table3") || want("table4") {
		run("Tables III/IV — scalability vs #edges (GDELT)", func() error {
			targets := []int{1000, 10000}
			if *scale >= 1 {
				targets = []int{1000, 10000, 100000, 500000}
			}
			rows, err := experiments.Scalability(o, targets)
			if err != nil {
				return err
			}
			experiments.PrintScale(w, rows)
			return nil
		})
	}
	if want("fig10") {
		run("Figure 10 — downstream augmentation case study", func() error {
			rows, err := experiments.Figure10(o)
			if err != nil {
				return err
			}
			experiments.PrintFig10(w, rows)
			return nil
		})
	}
	if want("params") {
		run("Parameter analysis (Appendix A-F) — Email", func() error {
			rows, err := experiments.ParamAnalysis(o)
			if err != nil {
				return err
			}
			experiments.PrintParams(w, rows)
			return nil
		})
	}
	if want("ablation") {
		run("Ablation (Appendix A-E) — Email", func() error {
			rows, err := experiments.Ablation(o)
			if err != nil {
				return err
			}
			experiments.PrintAblation(w, rows)
			return nil
		})
	}
}
