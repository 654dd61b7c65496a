package baselines_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"vrdag/internal/baselines"
	"vrdag/internal/baselines/dymond"
	"vrdag/internal/baselines/gencat"
	"vrdag/internal/baselines/gran"
	"vrdag/internal/baselines/normalattr"
	"vrdag/internal/baselines/walker"
	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
)

// TestBaselinesBytesPinned pins what the seven baselines generate across
// commits: the sha256 of the dyngraph.Save text of one generation each, at
// their default configurations, on the email replica at scale 0.015 with
// seed 6. A change to a baseline's draws, a walk sampler's accept rule or
// a fitted statistic moves a digest. The digests were taken on amd64,
// where Go does not fuse a multiply and an add into one rounding.
func TestBaselinesBytesPinned(t *testing.T) {
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
		{walker.NewTIGGER(6), "c600d78369de7bc9d5cf5f04432a6a9171cb13e241ca266a62d832cf32ad41ec"},
		{walker.NewTGGAN(6), "059357feb37e7b69b2c8219eb72dd6a3393ccf1efb7dc07cbb8bc315fae397df"},
		{walker.NewTagGen(6), "a4199933c435463cc65b27d842ea94a37e7a733814a47c33ee2f2a32288a17b0"},
		{dymond.New(dymond.Config{Seed: 6}), "d19aaa1abbcdb8c578c16e2eb33dae9f21bf717ba0bd578821f302baa0f16697"},
		{gran.New(gran.Config{Seed: 6}), "df59882971a5c27bd48311a4547f9d98d0facc3a4a85b942ad25383ab6cdef25"},
		{gencat.New(gencat.Config{Seed: 6}), "508f4cdd96e37051483c7f5cc7e1ddc29d5529acacea425db596327035bb7505"},
		{normalattr.New(normalattr.Config{Seed: 6}), "aeb484dd048defff061d6ff1225f3caac3c8a942f0fa6e632923dd0d53a27488"},
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
