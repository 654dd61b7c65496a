// Data-augmentation scenario (the paper's Section IV-E case study): boost
// a downstream dynamic-graph predictor by training it on the original
// sequence plus VRDAG-generated synthetic data, and compare against no
// augmentation and against augmentation with the static GenCAT baseline.
//
//	go run ./examples/augmentation
package main

import (
	"fmt"
	"log"

	"vrdag/internal/baselines/gencat"
	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/downstream"
)

func main() {
	observed, _, err := datasets.Replica(datasets.Email, 0.04, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task: forecast the final snapshot of an Email-like graph "+
		"(N=%d, T=%d)\n", observed.N, observed.T())

	// Synthetic data from VRDAG (dynamic, attribute-aware)...
	cfg := core.DefaultConfig(observed.N, observed.F)
	cfg.Epochs = 15
	cfg.Seed = 21
	cfg.CandidateCap = 0
	model := core.New(cfg)
	if _, err := model.Fit(observed); err != nil {
		log.Fatal(err)
	}
	vrdagSynth, err := model.Generate(observed.T())
	if err != nil {
		log.Fatal(err)
	}

	// ...and from GenCAT (static baseline).
	gc := gencat.New(gencat.Config{Seed: 22})
	if err := gc.Fit(observed); err != nil {
		log.Fatal(err)
	}
	gencatSynth, err := gc.Generate(observed.T())
	if err != nil {
		log.Fatal(err)
	}

	// Train CoEvoGNN under the three regimes of Fig. 10.
	dcfg := downstream.Config{Epochs: 40, Seed: 23}
	base, aug, err := downstream.RunCaseStudy(observed, dcfg, vrdagSynth, gencatSynth)
	if err != nil {
		log.Fatal(err)
	}
	vrdagAug, gencatAug := aug[0], aug[1]

	fmt.Printf("\n%-18s %10s %10s\n", "training data", "link F1", "attr RMSE")
	fmt.Printf("%-18s %10.4f %10.4f\n", "no augmentation", base.LinkF1, base.AttrRMSE)
	fmt.Printf("%-18s %10.4f %10.4f\n", "+ VRDAG", vrdagAug.LinkF1, vrdagAug.AttrRMSE)
	fmt.Printf("%-18s %10.4f %10.4f\n", "+ GenCAT", gencatAug.LinkF1, gencatAug.AttrRMSE)

	switch {
	case vrdagAug.LinkF1 >= base.LinkF1 && vrdagAug.LinkF1 >= gencatAug.LinkF1:
		fmt.Println("\nVRDAG augmentation helps most — its snapshots carry the original's" +
			" temporal node behaviour, unlike the independent GenCAT snapshots.")
	case vrdagAug.LinkF1 >= gencatAug.LinkF1:
		fmt.Println("\nVRDAG augmentation beats the static baseline (train both longer" +
			" to reproduce the paper's margins).")
	default:
		fmt.Println("\nAt this tiny demo scale the augmentation contrast is noisy;" +
			" increase the replica scale and epochs to reproduce Fig. 10.")
	}
}
