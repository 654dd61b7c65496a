package baselines_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"vrdag/internal/baselines"
	"vrdag/internal/baselines/taggen"
	"vrdag/internal/baselines/tggan"
	"vrdag/internal/baselines/tigger"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
)

// TestWalkBaselinesBytesPinned pins what the three walk baselines generate
// across commits: the sha256 of the dyngraph.Save text of one generation
// each, at their default configurations, on the email replica at scale
// 0.015 with seed 6. A change to a walk sampler's draws or accept rule
// moves a digest. The digests were taken on amd64, where Go does not fuse
// a multiply and an add into one rounding.
func TestWalkBaselinesBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were taken on amd64")
	}
	g, _, err := datasets.Replica(datasets.Email, 0.015, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gen  baselines.Generator
		want string
	}{
		{tigger.New(tigger.Config{Seed: 6}), "c600d78369de7bc9d5cf5f04432a6a9171cb13e241ca266a62d832cf32ad41ec"},
		{tggan.New(tggan.Config{Seed: 6}), "059357feb37e7b69b2c8219eb72dd6a3393ccf1efb7dc07cbb8bc315fae397df"},
		{taggen.New(taggen.Config{Seed: 6}), "48228d823ab2599ee26078eadb105a8c1b4ed5fbeeb2abde356d6b25f210ec3e"},
	} {
		t.Run(tc.gen.Name(), func(t *testing.T) {
			if err := tc.gen.Fit(g); err != nil {
				t.Fatal(err)
			}
			out, err := tc.gen.Generate(g.T())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := dyngraph.Save(h, out); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("generated digest %s, want %s", got, tc.want)
			}
		})
	}
}
