package baselines_test

import (
	"strings"
	"testing"

	"vrdag/internal/baselines"
	"vrdag/internal/baselines/dymond"
	"vrdag/internal/baselines/gencat"
	"vrdag/internal/baselines/gran"
	"vrdag/internal/baselines/normalattr"
	"vrdag/internal/baselines/walker"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/metrics"
)

func trainSeq(t *testing.T) *dyngraph.Sequence {
	t.Helper()
	g, _, err := datasets.Replica(datasets.Email, 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allGens() []baselines.Generator {
	return []baselines.Generator{
		walker.NewTagGen(1),
		walker.NewTGGAN(2),
		walker.NewTIGGER(3),
		dymond.New(dymond.Config{Seed: 4}),
		gran.New(gran.Config{Seed: 5}),
		gencat.New(gencat.Config{Seed: 6}),
		normalattr.New(normalattr.Config{Seed: 7}),
	}
}

func TestAllBaselinesFitGenerateContract(t *testing.T) {
	g := trainSeq(t)
	for _, gen := range allGens() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			// Generate before Fit must fail.
			if _, err := gen.Generate(3); err == nil {
				t.Fatal("Generate before Fit must error")
			}
			if err := gen.Fit(g); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			// Bad T must fail.
			if _, err := gen.Generate(0); err == nil {
				t.Fatal("T=0 must error")
			}
			out, err := gen.Generate(g.T())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if out.N != g.N {
				t.Fatalf("N=%d, want %d", out.N, g.N)
			}
			if out.T() != g.T() {
				t.Fatalf("T=%d, want %d", out.T(), g.T())
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("invalid output: %v", err)
			}
			if out.TotalTemporalEdges() == 0 {
				t.Fatal("no edges generated")
			}
		})
	}
}

func TestWalkBaselinesMatchDensity(t *testing.T) {
	g := trainSeq(t)
	for _, gen := range []baselines.Generator{
		walker.NewTagGen(11),
		walker.NewTGGAN(12),
		walker.NewTIGGER(13),
	} {
		if err := gen.Fit(g); err != nil {
			t.Fatal(err)
		}
		out, err := gen.Generate(g.T())
		if err != nil {
			t.Fatal(err)
		}
		// Walk merging deduplicates repeated edges, so the synthetic count
		// may fall below the raw target; it must stay within 4x either way.
		orig, got := float64(g.TotalTemporalEdges()), float64(out.TotalTemporalEdges())
		if got < orig/4 || got > orig*4 {
			t.Errorf("%s: edge budget missed: orig=%v got=%v", gen.Name(), orig, got)
		}
	}
}

func TestWalkBaselinesReuseRealEdges(t *testing.T) {
	// Temporal-walk methods resample observed transitions, so synthetic
	// edges should overwhelmingly be real node pairs.
	g := trainSeq(t)
	gen := walker.NewTIGGER(21)
	if err := gen.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := gen.Generate(g.T())
	if err != nil {
		t.Fatal(err)
	}
	pairSeen := map[[2]int]bool{}
	for _, s := range g.Snapshots {
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				pairSeen[[2]int{u, v}] = true
			}
		}
	}
	real, total := 0, 0
	for _, s := range out.Snapshots {
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				total++
				if pairSeen[[2]int{u, v}] {
					real++
				}
			}
		}
	}
	if total == 0 || float64(real)/float64(total) < 0.95 {
		t.Fatalf("walk output should reuse real pairs: %d/%d", real, total)
	}
}

func TestDymondRejectsOversizedMotifStore(t *testing.T) {
	g, _, err := datasets.Replica(datasets.Email, 0.1, 23)
	if err != nil {
		t.Fatal(err)
	}
	gen := dymond.New(dymond.Config{MaxMotifs: 10, Seed: 1})
	if err := gen.Fit(g); err == nil {
		t.Fatal("tiny motif budget must make Fit fail (paper: Dymond only runs on Email)")
	} else if !strings.Contains(err.Error(), "motif store") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestGenCATPreservesAttributeDistribution(t *testing.T) {
	g := trainSeq(t)
	gen := gencat.New(gencat.Config{Seed: 31})
	if err := gen.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := gen.Generate(g.T())
	if err != nil {
		t.Fatal(err)
	}
	jsd := metrics.AttrJSD(g, out, 32)
	if jsd > 0.5 {
		t.Fatalf("GenCAT attribute JSD too high: %g", jsd)
	}
}

func TestGenCATSnapshotsAreTemporallyIndependent(t *testing.T) {
	// The static baseline's consecutive snapshots share almost no edges
	// (unlike the original, which persists ~25% of them).
	g := trainSeq(t)
	gen := gencat.New(gencat.Config{Seed: 32})
	if err := gen.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := gen.Generate(g.T())
	if err != nil {
		t.Fatal(err)
	}
	origDiff := metrics.DifferenceSeries(g, metrics.TotalDegrees)
	genDiff := metrics.DifferenceSeries(out, metrics.TotalDegrees)
	// Static generation churns many more edges between steps than the
	// persistent original.
	if metrics.SeriesMAE(origDiff, genDiff) == 0 {
		t.Fatal("expected measurable dynamic divergence for the static baseline")
	}
}

func TestNormalBaselineMatchesMoments(t *testing.T) {
	g := trainSeq(t)
	gen := normalattr.New(normalattr.Config{Seed: 41})
	if err := gen.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := gen.Generate(g.T())
	if err != nil {
		t.Fatal(err)
	}
	// EMD between real and normal-fit attributes is finite and small-ish,
	// but correlation structure must be destroyed.
	realRows := metrics.AttributeRows(g)
	genRows := metrics.AttributeRows(out)
	mReal := metrics.SpearmanMatrix(realRows)
	mGen := metrics.SpearmanMatrix(genRows)
	if len(mReal) >= 2 {
		if abs(mGen[0][1]) > abs(mReal[0][1])/2 && abs(mReal[0][1]) > 0.3 {
			t.Fatalf("independent normal draws should break correlations: real=%g gen=%g",
				mReal[0][1], mGen[0][1])
		}
	}
}

func TestNormalBaselineRequiresAttributes(t *testing.T) {
	gen := normalattr.New(normalattr.Config{})
	if err := gen.Fit(dyngraph.NewSequence(10, 0, 3)); err == nil {
		t.Fatal("unattributed sequence must be rejected")
	}
}

func TestGRANIgnoresTemporalStructure(t *testing.T) {
	g := trainSeq(t)
	gen := gran.New(gran.Config{Seed: 51})
	if err := gen.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := gen.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive snapshots from the static model share very few edges.
	shared, total := 0, 0
	for tt := 1; tt < out.T(); tt++ {
		prev, cur := out.At(tt-1), out.At(tt)
		for u := 0; u < out.N; u++ {
			for _, v := range prev.Out[u] {
				total++
				if cur.HasEdge(u, v) {
					shared++
				}
			}
		}
	}
	if total > 0 && float64(shared)/float64(total) > 0.2 {
		t.Fatalf("GRAN snapshots should be near-independent, persistence=%g",
			float64(shared)/float64(total))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
