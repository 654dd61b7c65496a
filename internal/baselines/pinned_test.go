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
		{walker.NewTIGGER(6), "afd6a6f94b6b1f45b516e200518d5eb85217e5cb1820a571197719d384fe2c2d"},
		{walker.NewTGGAN(6), "cb55c9005f245ef073998340f84a709d7f2d906b3da22c2fa2c721ec2c256a77"},
		{walker.NewTagGen(6), "870897c44d375eae3786d4a9946d1b64a52b99da85a17a38090069abc61e55e6"},
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
