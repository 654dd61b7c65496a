package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// TestPairScorerMatchesMLPForward holds the hoisted, transposed scoring of
// decode.go against Eq. 11 evaluated the plain way — f_θ and f_α run by
// MLP.Apply on the matrix of differences s_i − s_j — for every node of a
// real decodeStructure call. Only the first layer's rounding may differ.
func TestPairScorerMatchesMLPForward(t *testing.T) {
	cases := []struct {
		name     string
		n, cap   int
		zeroH    bool // t=0: the H half of every difference is exactly 0
		inactive bool // some nodes have left the active set (DynamicNodes)
		wantC    int  // candidates per active node (capped: of the fullest node)
	}{
		{name: "exact C=1", n: 2, wantC: 1},
		{name: "exact C=7 zero H", n: 8, zeroH: true, wantC: 7},
		{name: "capped C=7", n: 40, cap: 7, wantC: 7},
		{name: "capped C=7 inactive", n: 40, cap: 7, inactive: true, wantC: 7},
		{name: "exact C=93", n: 94, wantC: 93},
		{name: "exact C=93 zero H inactive", n: 94, zeroH: true, inactive: true, wantC: 93},
		{name: "cap at N-1 is exact", n: 94, cap: 93, wantC: 93},
		{name: "capped C=128", n: 400, cap: 128, wantC: 128},
		{name: "capped C=128 zero H inactive", n: 400, cap: 128, zeroH: true, inactive: true, wantC: 128},
	}
	comps := make(map[int]bool) // components some node drew, over all cases
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n*1000 + tc.cap)))
			cfg := DefaultConfig(tc.n, 0)
			cfg.CandidateCap = tc.cap
			cfg.Seed = 3
			m := New(cfg)
			// A fresh model's biases are zero; the scorer must carry them.
			for _, mlp := range []*nn.MLP{m.fTheta, m.fAlpha} {
				for _, l := range mlp.Layers {
					for i := range l.B.Value.Data {
						l.B.Value.Data[i] = rng.NormFloat64()
					}
				}
			}
			ds := cfg.LatentDim + cfg.HiddenDim
			s := tensor.Randn(tc.n, ds, 1, rng)
			if tc.zeroH {
				for i := 0; i < tc.n; i++ {
					clear(s.Row(i)[cfg.LatentDim:])
				}
			}

			st := m.newGenState(GenOptions{T: 1, Seed: 11, DynamicNodes: tc.inactive, Parallel: true}, nil)
			defer st.release()
			if tc.inactive {
				for i := 1; i < tc.n; i += 5 {
					st.active[i] = false
				}
			}
			// History for the candidate builder: previous out-neighbours and
			// uneven degrees.
			st.prev = dyngraph.NewSnapshot(tc.n, 0)
			for e := 0; e < 3*tc.n; e++ {
				st.prev.AddEdge(rng.Intn(tc.n), rng.Intn(tc.n))
			}
			for i := range st.degree {
				st.degree[i] = float64(rng.Intn(9))
			}
			snap := dyngraph.NewSnapshot(tc.n, 0)
			st.drawStep(snap)
			st.decodeStructure(snap, s, 0)

			ps, maxC := st.ps, 0
			for i := 0; i < tc.n; i++ {
				c := ps.cnt[i]
				if !st.active[i] {
					if c != 0 {
						t.Fatalf("inactive node %d scored %d candidates", i, c)
					}
					continue
				}
				// The capped builder's rejection sampling may stop short of the cap.
				if c == 0 || c > tc.wantC || (ps.exact && c != tc.wantC) {
					t.Fatalf("node %d scored %d candidates, want %d", i, c, tc.wantC)
				}
				maxC = max(maxC, c)
				diff := tensor.New(c, ds)
				seen := make(map[int]bool, c)
				for k := 0; k < c; k++ {
					j := ps.candidate(i, k)
					if j == i || j < 0 || j >= tc.n || seen[j] {
						t.Fatalf("node %d: candidate %d is %d (self, out of range or repeated)", i, k, j)
					}
					seen[j] = true
					for x := 0; x < ds; x++ {
						diff.Set(k, x, s.At(i, x)-s.At(j, x))
					}
				}
				tape := tensor.NewTape()
				ctx := nn.NewEvalCtx(tape)
				theta := m.fTheta.Apply(ctx, tape.Const(diff)).Value
				tensor.VSigmoid(theta.Data)
				aOut := m.fAlpha.Apply(ctx, tape.Const(diff)).Value
				aSum := make([]float64, cfg.K)
				for k := 0; k < c; k++ {
					for q := range aSum {
						aSum[q] += aOut.At(k, q)
					}
				}
				alpha := make([]float64, cfg.K)
				tensor.SoftmaxSlice(alpha, aSum)

				for q, want := range alpha {
					if got := ps.alpha[i*cfg.K+q]; math.Abs(got-want) > 1e-12 {
						t.Fatalf("alpha[%d][%d] = %v, MLP.Apply gives %v", i, q, got, want)
					}
				}
				comp := st.comp[i]
				comps[comp] = true
				for k := 0; k < c; k++ {
					got, want := ps.theta[i*ps.stride+k], theta.At(k, comp)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("theta[%d][%d] under component %d = %v, MLP.Apply gives %v", i, k, comp, got, want)
					}
				}
				tape.Reset()
			}
			if maxC != tc.wantC {
				t.Fatalf("fullest candidate set has %d, want %d", maxC, tc.wantC)
			}
		})
	}
	if len(comps) < 2 {
		t.Fatalf("only components %v were drawn; the θ check did not cover every second-layer row", comps)
	}
}

// newPairScorer returns a scorer over buffers of its own.
func (m *Model) newPairScorer(parallel bool) *pairScorer {
	sh := m.decodeShape(parallel)
	return m.pairScorerOn(m.newPairBufs(sh), sh)
}

// TestPairScorerFansOut: a timestep shares its passes with the helpers only
// from decodeFanOutPairs pairs, counted over the active nodes, and never
// without a helper to share them with.
func TestPairScorerFansOut(t *testing.T) {
	const n = 400
	cfg := DefaultConfig(n, 0)
	cfg.CandidateCap = 0
	m := New(cfg)
	ps := m.newPairScorer(true)
	ps.workers = make([]*pairWorker, 2) // fansOut reads only the count
	active := make([]bool, n)
	need := (decodeFanOutPairs + n - 2) / (n - 1) // active nodes that reach the cut
	for i := n - need; i < n; i++ {
		active[i] = true
	}
	if !ps.fansOut(active) {
		t.Fatalf("%d active nodes of %d pairs each do not fan out", need, n-1)
	}
	active[n-need] = false
	if ps.fansOut(active) {
		t.Fatalf("%d active nodes of %d pairs each fan out, below decodeFanOutPairs", need-1, n-1)
	}
	for i := range active {
		active[i] = true
	}
	if m.newPairScorer(false).fansOut(active) {
		t.Fatal("a scorer without helpers fans out")
	}
}

// TestGenerateFanOutIdentical is TestGenerateDeterministicForSeed at sizes
// whose timesteps clear decodeFanOutPairs, so Parallel really shares the
// passes with the helpers: exact and capped decoding, with nodes leaving
// the active set. N=94 is the bench's headline size (exact under either
// cap).
func TestGenerateFanOutIdentical(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps to fan out")
	}
	for _, cap := range []int{0, 128} {
		t.Run(fmt.Sprintf("cap%d", cap), func(t *testing.T) {
			for _, n := range []int{94, 300} {
				t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
					cfg := DefaultConfig(n, 2)
					cfg.CandidateCap = cap
					cfg.Seed = 5
					m := New(cfg)
					opts := GenOptions{T: 4, Seed: 42, DynamicNodes: true, Tdel: 1, Parallel: true}

					st := m.newGenState(opts, nil)
					fans := st.ps.fansOut(st.active)
					st.release()
					if !fans {
						t.Fatalf("N=%d cap %d does not fan out; the comparison below would be serial against serial", n, cap)
					}

					par, err := m.GenerateOpts(opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Parallel = false
					ser, err := m.GenerateOpts(opts)
					if err != nil {
						t.Fatal(err)
					}
					edges := 0
					for tt := range par.Snapshots {
						a, b := par.At(tt), ser.At(tt)
						edges += a.NumEdges()
						if !reflect.DeepEqual(a.Out, b.Out) {
							t.Fatalf("snapshot %d: edges differ between Parallel true and false", tt)
						}
						if !reflect.DeepEqual(a.X.Data, b.X.Data) {
							t.Fatalf("snapshot %d: attributes differ between Parallel true and false", tt)
						}
					}
					if edges == 0 {
						t.Fatal("generated no edges")
					}
				})
			}
		})
	}
}

// TestGenerateBitIdenticalAcrossBackends generates the same seed under
// every compiled backend and compares the saved bytes: exact decoding at
// N=94 (the pair kernel over consecutive rows, both tails) and capped
// decoding at N=400 with nodes leaving the active set (gathered rows), on
// one goroutine and fanned out. TestFitBitIdenticalAcrossBackends holds
// training the same way; without this one generation was only ever run
// under whichever backend is active.
func TestGenerateBitIdenticalAcrossBackends(t *testing.T) {
	active := tensor.ActiveBackend()
	defer func() {
		if err := tensor.SetBackend(active); err != nil {
			t.Fatal(err)
		}
	}()
	for _, tc := range []struct{ n, cap int }{{94, 0}, {400, 128}} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("N%d_cap%d_parallel=%v", tc.n, tc.cap, parallel), func(t *testing.T) {
				cfg := DefaultConfig(tc.n, 2)
				cfg.CandidateCap = tc.cap
				cfg.Seed = 7
				opts := GenOptions{T: 4, Seed: 24, DynamicNodes: tc.cap > 0, Tdel: 1, Parallel: parallel}
				var refName string
				var ref []byte
				for _, name := range tensor.BackendNames() {
					if err := tensor.SetBackend(name); err != nil {
						t.Fatal(err)
					}
					// A model per backend: New draws no kernel-dependent value,
					// and a shared one would hide a backend that writes to it.
					seq, err := New(cfg).GenerateOpts(opts)
					if err != nil {
						t.Fatal(err)
					}
					if seq.At(opts.T-1).NumEdges() == 0 {
						t.Fatal("generated no edges in the last snapshot")
					}
					var buf bytes.Buffer
					if err := dyngraph.Save(&buf, seq); err != nil {
						t.Fatal(err)
					}
					if refName == "" {
						refName, ref = name, buf.Bytes()
					} else if !bytes.Equal(buf.Bytes(), ref) {
						t.Fatalf("dyngraph.Save bytes under %s differ from %s", name, refName)
					}
				}
			})
		}
	}
}

// TestEncodeBitIdenticalAcrossBackends encodes the same observed prefix
// under every compiled backend — an attributed email ×0.05 replica's first
// eight snapshots, N=94, through a model fitted once on them — and
// compares the ForecastState's H bit for bit and the saved bytes of a
// forecast from it. Ingest runs this path once per window; the Fit and
// Generate tests above never run it.
func TestEncodeBitIdenticalAcrossBackends(t *testing.T) {
	active := tensor.ActiveBackend()
	defer func() {
		if err := tensor.SetBackend(active); err != nil {
			t.Fatal(err)
		}
	}()
	g, _, err := datasets.Replica(datasets.Email, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.F == 0 || g.T() < 8 {
		t.Fatalf("replica has F=%d and %d snapshots, want attributes and at least 8", g.F, g.T())
	}
	prefix := &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:8]}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Epochs = 1
	cfg.Seed = 7
	m := New(cfg)
	if _, err := m.Fit(prefix); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var refName string
	var refH []float64
	var refBytes []byte
	for _, name := range tensor.BackendNames() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatal(err)
		}
		st, err := m.Encode(ctx, prefix)
		if err != nil {
			t.Fatal(err)
		}
		h := append([]float64(nil), st.h.Data...)
		seq, err := m.Forecast(ctx, st, GenOptions{T: 2, Seed: 24})
		st.Release()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dyngraph.Save(&buf, seq); err != nil {
			t.Fatal(err)
		}
		if refName == "" {
			refName, refH, refBytes = name, h, buf.Bytes()
			continue
		}
		for i := range h {
			if math.Float64bits(h[i]) != math.Float64bits(refH[i]) {
				t.Fatalf("H[%d] under %s = %#x, under %s %#x", i, name, math.Float64bits(h[i]), refName, math.Float64bits(refH[i]))
			}
		}
		if !bytes.Equal(buf.Bytes(), refBytes) {
			t.Fatalf("forecast dyngraph.Save bytes under %s differ from %s", name, refName)
		}
	}
}

// TestGenerateBytesPinned pins what a trained model generates across
// commits: the sha256 of the dyngraph.Save text of a generated sequence,
// then of a forecast from an encoded four-snapshot prefix, for a 3-epoch
// N=94 fit at F=0 and F=2. A change to the order of any floating-point
// sum on the generation or prefix-encoding path moves a digest. The avx2
// exp kernel replays math.Exp's FMA path, so the digests hold only where
// the CPU has FMA.
func TestGenerateBytesPinned(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("digests were taken with the FMA exp path")
	}
	for _, tc := range []struct {
		f    int
		want string
	}{
		{0, "ffc05b98c381f494899858be543c90c43345e729f6db74b0e931bdab42b18365"},
		{2, "7c638f7978cfef5b0c19ac68504995ab0221fba97410b1241a8e6715fb81ed6e"},
	} {
		t.Run(fmt.Sprintf("f%d", tc.f), func(t *testing.T) {
			cfg := DefaultConfig(94, tc.f)
			cfg.Epochs = 3
			cfg.Seed = 71
			g := toyGraph(cfg.N, tc.f, 8, 71)
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				t.Fatal(err)
			}
			opts := GenOptions{T: 5, Seed: 72, Parallel: true}
			seq, err := m.GenerateOpts(opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Encode(context.Background(), &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:4]})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Release()
			fc, err := m.Forecast(context.Background(), st, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range []*dyngraph.Sequence{seq, fc} {
				if err := dyngraph.Save(h, s); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("generated digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestGenerateCappedBytesPinned is TestGenerateBytesPinned for capped
// decoding, which N=94 never reaches under cap 128: a 2-epoch N=300 fit
// decoding through CandidateCap 32 for T=6 steps, at F=0 and F=2. It pins
// a generation, a forecast from an encoded four-snapshot prefix, and a
// generation under DynamicNodes (whose active set changes after each
// step's GRU), each as the sha256 of its dyngraph.Save text.
func TestGenerateCappedBytesPinned(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("digests were taken with the FMA exp path")
	}
	for _, tc := range []struct {
		f                   int
		gen, forecast, dyna string
	}{
		{0,
			"18c61984a2490ffd9b6b4184768cb8062c6a9d6680a33184191d2fd93ca8eb80",
			"a7b754ead7d5a5f4a59fec9a06e169b23fc645cc807540f7af41e411713e0b2c",
			"7632237bf8574615f382b554fac1a6bfcafe28da1c53a5579b957bdfb0be4c8b"},
		{2,
			"d21f046379baf33978011a5d0a55b9653fad30b0f6f3f1677a85837f1cd3ba9b",
			"34e0cf45f4f6e01508bdf72a71027be321a7f0fc33f8af8e8a5ef570281be9f4",
			"781f9a355905ed12090aa3e7077b8e73d3d10d8149e07ff9f942ddf3d3ec9282"},
	} {
		t.Run(fmt.Sprintf("f%d", tc.f), func(t *testing.T) {
			cfg := DefaultConfig(300, tc.f)
			cfg.CandidateCap = 32
			cfg.Epochs = 2
			cfg.Seed = 81
			g := toyGraph(cfg.N, tc.f, 8, 81)
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				t.Fatal(err)
			}
			if m.cal.persistRate == 0 {
				t.Fatal("the fit learned no persistence rate: the replay's draws would go unpinned")
			}
			opts := GenOptions{T: 6, Seed: 82, Parallel: true}
			digest := func(s *dyngraph.Sequence) string {
				h := sha256.New()
				if err := dyngraph.Save(h, s); err != nil {
					t.Fatal(err)
				}
				return hex.EncodeToString(h.Sum(nil))
			}
			seq, err := m.GenerateOpts(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(seq); got != tc.gen {
				t.Errorf("generated digest %s, want %s", got, tc.gen)
			}
			st, err := m.Encode(context.Background(), &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:4]})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Release()
			fc, err := m.Forecast(context.Background(), st, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(fc); got != tc.forecast {
				t.Errorf("forecast digest %s, want %s", got, tc.forecast)
			}
			opts.DynamicNodes, opts.Tdel = true, 1
			dyn, err := m.GenerateOpts(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(dyn); got != tc.dyna {
				t.Errorf("DynamicNodes digest %s, want %s", got, tc.dyna)
			}
		})
	}
}

// TestGenerateMainStreamDraws pins how many draws one generation takes
// from GenOptions.Source: exact decoding at N=94, capped decoding at N=300
// under cap 32, DynamicNodes, and a forecast continuing an encoded prefix,
// each with and without the helpers. The digests above pin what is drawn
// into the output; this pins the stream itself, so a change that moves a
// draw ahead, inline or onto a helper must take exactly the draws there
// were. Like the digests, the counts hold only where the CPU has FMA: the
// persistence replay draws once per edge of the previous snapshot. Last,
// a step that reads fewer uniforms than were drawn for it must panic.
func TestGenerateMainStreamDraws(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("counts were taken with the FMA exp path")
	}
	fit := func(n, cap int, seed int64) (*Model, *dyngraph.Sequence) {
		cfg := DefaultConfig(n, 2)
		cfg.CandidateCap = cap
		cfg.Epochs = 2
		cfg.Seed = seed
		g := toyGraph(n, 2, 8, seed)
		m := New(cfg)
		if _, err := m.Fit(g); err != nil {
			t.Fatal(err)
		}
		if m.cal.persistRate == 0 || !m.calibrator().composes() {
			t.Fatal("the fit learned no persistence rate or attribute statistics: their draws would go uncounted")
		}
		return m, g
	}
	exact, g := fit(94, 0, 91)
	capped, _ := fit(300, 32, 92)
	prefix, err := exact.Encode(context.Background(), &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:4]})
	if err != nil {
		t.Fatal(err)
	}
	defer prefix.Release()
	generate := func(m *Model) func(GenOptions) error {
		return func(o GenOptions) error { _, err := m.GenerateOpts(o); return err }
	}
	for _, tc := range []struct {
		name string
		run  func(GenOptions) error
		dyn  bool
		want uint64
	}{
		{"exact N94", generate(exact), false, 50257},
		{"capped N300 cap32", generate(capped), false, 68968},
		{"DynamicNodes", generate(exact), true, 49737},
		{"forecast", func(o GenOptions) error {
			_, err := exact.Forecast(context.Background(), prefix, o)
			return err
		}, false, 50429},
	} {
		for _, parallel := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tc.name, parallel), func(t *testing.T) {
				src := &drawCounter{src: rand.NewSource(93).(rand.Source64)}
				if err := tc.run(GenOptions{T: 5, Source: src, DynamicNodes: tc.dyn, Tdel: 1, Parallel: parallel}); err != nil {
					t.Fatal(err)
				}
				if src.n != tc.want {
					t.Fatalf("%d draws from the Source, want %d", src.n, tc.want)
				}
			})
		}
	}

	// Step 1's uniforms are drawn during step 0, for every node active; a
	// node that finds no candidates in step 1 leaves some of them unread.
	t.Run("unread uniforms panic", func(t *testing.T) {
		st := exact.newGenState(GenOptions{T: 2, Seed: 93, Parallel: true}, nil)
		defer st.release()
		st.step(0)
		st.ps.join()
		st.ps.cnt[3] = 0
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "uniforms drawn for it") {
				t.Fatalf("recovered %v, want the decode step's uniform-count panic", r)
			}
		}()
		st.step(1)
	})
}
