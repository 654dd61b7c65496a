// Command vrdag-gen trains a VRDAG model on a dynamic attributed graph and
// writes a synthetic sequence.
//
// Input is either a named dataset replica (-dataset email|bitcoin|wiki|
// guarantee|brain|gdelt, optionally scaled with -scale) or a graph file in
// the vrdag-graph text format (-in). The synthetic sequence is written to
// -out (or stdout) in the same format.
//
//	vrdag-gen -dataset email -scale 0.1 -epochs 20 -out synth.vg
//	vrdag-gen -in observed.vg -T 30 -out synth.vg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatalf("vrdag-gen: %v", err)
	}
}

// run is the whole command: parse args, train or restore, generate, write
// to -out or stdout. Every failure comes back as an error so main has one
// exit path.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vrdag-gen", flag.ExitOnError)
	var (
		dataset  = fs.String("dataset", "", "named dataset replica (email, bitcoin, wiki, guarantee, brain, gdelt)")
		scale    = fs.Float64("scale", 0.1, "replica scale factor (1 = paper size)")
		inPath   = fs.String("in", "", "input graph file (vrdag-graph format); overrides -dataset")
		outPath  = fs.String("out", "", "output file (default stdout)")
		horizon  = fs.Int("T", 0, "snapshots to generate (default: same as input)")
		epochs   = fs.Int("epochs", 20, "training epochs")
		seed     = fs.Int64("seed", 1, "random seed")
		hidden   = fs.Int("hidden", 16, "hidden state size d_h")
		latent   = fs.Int("latent", 8, "latent size d_z")
		k        = fs.Int("k", 2, "MixBernoulli components")
		cap_     = fs.Int("cap", 128, "candidate cap during decoding (0 = exact)")
		dyn      = fs.Bool("dynamic-nodes", false, "enable the node add/delete extension (§III-H)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		tbptt    = fs.Int("tbptt", 0, "truncated-BPTT window (0 = full-sequence backprop)")
		nbrs     = fs.Int("neighbor-sample", 0, "encoder neighbour-sampling cap r (0 = full neighbourhoods)")
		saveTo   = fs.String("save-model", "", "write the trained model to this file")
		loadFrom = fs.String("load-model", "", "skip training: restore a model saved with -save-model")
	)
	fs.Parse(args)

	// core.Config treats 0 as "use the default" and panics on negative
	// shapes, so out-of-range sizes are turned away here, before any work.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"epochs", *epochs, 1}, {"hidden", *hidden, 1}, {"latent", *latent, 1}, {"k", *k, 1},
		{"cap", *cap_, 0}, {"tbptt", *tbptt, 0}, {"neighbor-sample", *nbrs, 0},
	} {
		if f.val < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.val)
		}
	}

	g, err := loadInput(*inPath, *dataset, *scale, *seed)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "input: N=%d F=%d T=%d M=%d\n", g.N, g.F, g.T(), g.TotalTemporalEdges())
	}

	var model *core.Model
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		model, err = core.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "restored model: %d parameters\n", model.NumParams())
		}
	} else {
		cfg := core.DefaultConfig(g.N, g.F)
		cfg.Epochs = *epochs
		cfg.Seed = *seed
		cfg.HiddenDim = *hidden
		cfg.LatentDim = *latent
		cfg.K = *k
		cfg.CandidateCap = *cap_
		cfg.TBPTT = *tbptt
		cfg.NeighborSample = *nbrs
		model = core.New(cfg)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "model: %d parameters\n", model.NumParams())
		}
		progress := func(s core.TrainStats) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "epoch %3d  loss %.4f  (struc %.4f attr %.4f kl %.4f)  |g| %.3f\n",
					s.Epoch, s.Loss, s.StrucLoss, s.AttrLoss, s.KLLoss, s.GradNorm)
			}
		}
		if _, err := model.Fit(g, core.WithProgress(progress)); err != nil {
			return fmt.Errorf("training failed: %w", err)
		}
		if *saveTo != "" {
			if err := writeFile(*saveTo, model.Save); err != nil {
				return fmt.Errorf("save failed: %w", err)
			}
		}
	}

	t := *horizon
	if t == 0 {
		t = g.T()
	}
	synth, err := model.GenerateOpts(core.GenOptions{
		T: t, Seed: *seed + 1, DynamicNodes: *dyn, Parallel: true,
	})
	if err != nil {
		return fmt.Errorf("generation failed: %w", err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "generated: T=%d M=%d\n", synth.T(), synth.TotalTemporalEdges())
	}

	write := func(w io.Writer) error { return dyngraph.Save(w, synth) }
	if *outPath != "" {
		err = writeFile(*outPath, write)
	} else {
		err = write(stdout)
	}
	if err != nil {
		return fmt.Errorf("write failed: %w", err)
	}
	return nil
}

// writeFile creates path, hands it to write, and closes it; a Close error
// (the write-back of a full disk) fails the call like a Write error does.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadInput(inPath, dataset string, scale float64, seed int64) (*dyngraph.Sequence, error) {
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dyngraph.Load(f)
	}
	if dataset == "" {
		return nil, fmt.Errorf("either -in or -dataset is required")
	}
	g, _, err := datasets.Replica(dataset, scale, seed)
	return g, err
}

// fatalf emits one structured error line and exits non-zero.
func fatalf(format string, args ...any) {
	obs.NewLogger(os.Stderr, "text").Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
