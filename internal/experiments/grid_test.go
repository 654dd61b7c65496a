package experiments

import (
	"fmt"
	"testing"

	"vrdag/internal/datasets"
)

// overlapping returns runners on g whose keys overlap: Table I's VRDAG on
// email is Table II's, the ablation's full row and the parameter study's
// four default points, and the ablation's K=1 is the parameter study's.
// Each renders its rows with every field, the seconds zeroed.
func overlapping(g *grid) []func() (string, error) {
	show := func(rows any, err error) (string, error) { return fmt.Sprintf("%+v", rows), err }
	return []func() (string, error){
		func() (string, error) { return show(g.Table1(datasets.Email)) },
		func() (string, error) { return show(g.Table2()) },
		func() (string, error) { return show(g.Ablation()) },
		func() (string, error) {
			rows, err := g.ParamAnalysis()
			for i := range rows {
				rows[i].TrainSec, rows[i].GenSec = 0, 0
			}
			return show(rows, err)
		},
	}
}

// TestGridFitsEachKeyOnce runs four runners on one grid and checks that
// every (replica, generator) key was fitted once: 16 VRDAG keys, email
// and guarantee at the defaults, four more ablation variants and ten more
// parameter points, against 23 were each runner to fit its own.
func TestGridFitsEachKeyOnce(t *testing.T) {
	g := New(tiny())
	for _, run := range overlapping(g) {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	if g.fits != len(g.cells) {
		t.Fatalf("%d fits for %d keys", g.fits, len(g.cells))
	}
	vrdagKeys := 0
	for k := range g.cells {
		if k.method == vrdagMethod {
			vrdagKeys++
		}
	}
	if vrdagKeys != 16 {
		t.Fatalf("%d VRDAG keys, want 16", vrdagKeys)
	}
}

// TestGridRowsIndependentOfSharing checks that no runner writes into a
// sequence the grid shares: each runner's rows from a grid that has
// served all four runners equal its rows from a fresh grid.
func TestGridRowsIndependentOfSharing(t *testing.T) {
	skipIfShort(t)
	shared := New(tiny())
	for _, run := range overlapping(shared) {
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	again := overlapping(shared)
	for i, run := range overlapping(New(tiny())) {
		want, err := run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := again[i]()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("runner %d on a shared grid:\n%s\nfresh:\n%s", i, got, want)
		}
	}
}
