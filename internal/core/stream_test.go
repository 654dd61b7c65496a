package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// streamTestModel trains one small attributed model shared by the
// streaming tests (generation is read-only on the model).
func streamTestModel(t *testing.T) *Model {
	t.Helper()
	g := toyGraph(20, 2, 6, 11)
	m := New(smallConfig(20, 2))
	if _, err := m.Fit(g); err != nil {
		t.Fatalf("fit: %v", err)
	}
	return m
}

// TestGenerateStreamMatchesGenerateOpts is the golden equivalence test of
// the streaming engine: for a fixed seed, the recycled-buffer stream must
// yield snapshots byte-identical to the sequence the collecting path
// returns — same edges and bit-equal attribute floats at every timestep.
func TestGenerateStreamMatchesGenerateOpts(t *testing.T) {
	m := streamTestModel(t)
	const T = 7
	opts := func() GenOptions {
		return GenOptions{T: T, Source: rand.NewSource(99), DynamicNodes: true, Parallel: true}
	}

	collected, err := m.GenerateOpts(opts())
	if err != nil {
		t.Fatalf("GenerateOpts: %v", err)
	}

	var streamed []*dyngraph.Snapshot
	err = m.GenerateStream(context.Background(), opts(), func(s *dyngraph.Snapshot) error {
		streamed = append(streamed, s.Clone()) // s is recycled after yield returns
		return nil
	})
	if err != nil {
		t.Fatalf("GenerateStream: %v", err)
	}

	if len(streamed) != collected.T() {
		t.Fatalf("stream yielded %d snapshots, collector %d", len(streamed), collected.T())
	}
	for tt, want := range collected.Snapshots {
		got := streamed[tt]
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("snapshot %d: %d edges streamed, %d collected", tt, got.NumEdges(), want.NumEdges())
		}
		for u := 0; u < want.N; u++ {
			wo, go_ := want.Out[u], got.Out[u]
			if len(wo) != len(go_) {
				t.Fatalf("snapshot %d node %d: out-degree %d vs %d", tt, u, len(go_), len(wo))
			}
			for k := range wo {
				if wo[k] != go_[k] {
					t.Fatalf("snapshot %d node %d: edge %d differs", tt, u, k)
				}
			}
		}
		for i := range want.X.Data {
			if got.X.Data[i] != want.X.Data[i] {
				t.Fatalf("snapshot %d: attribute %d differs: %v vs %v", tt, i, got.X.Data[i], want.X.Data[i])
			}
		}
	}
}

// TestGenerateStreamRecyclesBuffers verifies the memory contract of the
// tentpole: a full streaming run returns every pooled buffer it took —
// snapshots included — so arena gets and puts balance exactly and the
// request pins no snapshot memory after it ends.
func TestGenerateStreamRecyclesBuffers(t *testing.T) {
	m := streamTestModel(t)
	// Warm-up run so one-time allocations (CSR caches, etc.) don't skew
	// the counter delta.
	if err := m.GenerateStream(context.Background(), GenOptions{T: 2, Seed: 5}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := tensor.ReadPoolStats()
	err := m.GenerateStream(context.Background(), GenOptions{T: 12, Seed: 7}, func(*dyngraph.Snapshot) error { return nil })
	if err != nil {
		t.Fatalf("GenerateStream: %v", err)
	}
	after := tensor.ReadPoolStats()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	if gets == 0 {
		t.Fatal("expected pooled allocations during streaming generation")
	}
	if gets != puts {
		t.Fatalf("arena leak: %d gets vs %d puts over a full stream", gets, puts)
	}
}

// TestGenerateStreamCancellation covers the abort path: cancelling the
// context mid-stream stops the loop within one timestep, reports the
// context's error, and still releases every pooled buffer.
func TestGenerateStreamCancellation(t *testing.T) {
	m := streamTestModel(t)
	if err := m.GenerateStream(context.Background(), GenOptions{T: 2, Seed: 5}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := tensor.ReadPoolStats()
	yields := 0
	err := m.GenerateStream(ctx, GenOptions{T: 100, Seed: 13}, func(*dyngraph.Snapshot) error {
		yields++
		if yields == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if yields != 3 {
		t.Fatalf("loop ran %d yields after cancellation at 3", yields)
	}
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("cancelled stream leaked arena buffers: %d gets vs %d puts", gets, puts)
	}
}

// TestGenerateStreamYieldError checks that a consumer error aborts the
// stream immediately and is returned verbatim, with no buffer leak.
func TestGenerateStreamYieldError(t *testing.T) {
	m := streamTestModel(t)
	if err := m.GenerateStream(context.Background(), GenOptions{T: 2, Seed: 5}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	sentinel := errors.New("consumer gave up")
	before := tensor.ReadPoolStats()
	yields := 0
	err := m.GenerateStream(context.Background(), GenOptions{T: 50, Seed: 17}, func(*dyngraph.Snapshot) error {
		yields++
		if yields == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the consumer's sentinel", err)
	}
	if yields != 2 {
		t.Fatalf("stream continued past the consumer error (%d yields)", yields)
	}
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("aborted stream leaked arena buffers: %d gets vs %d puts", gets, puts)
	}
}

// TestPairHelpersNeverOutliveRequest: the decode helpers of a generation
// or a forecast that fans out live exactly as long as the request. Each of
// GenerateStream and ForecastStream runs to completion, with its context
// cancelled mid-stream, with a yield error and with a panic; after each
// the goroutine count returns to what it was before, arena gets equal
// puts, and nothing draws from the request's Source once the call has
// returned. Each step posts the next step's drawStep pass to the helpers
// before its attribute decoder, encoder and GRU: the exact model (N=94)
// its uniforms, which stay posted across the yield, the capped model
// (N=300, cap 32) its candidate pass. Both stop early and after step
// T−2, each with the step after it drawn ahead, and panic in the
// attribute decoder with that pass still posted.
func TestPairHelpersNeverOutliveRequest(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps for the decode to have helpers")
	}
	const steps = 6
	type streamFunc func(context.Context, GenOptions, func(*dyngraph.Snapshot) error) error
	type end struct {
		name  string
		how   string // "complete", "cancel", "yield error" or "panic"
		after int    // yields before it stops
	}
	late := []end{
		{"cancel after step T-2", "cancel", steps - 1},
		{"yield error after step T-2", "yield error", steps - 1},
		{"panic in step 2", "panic", 2},
	}
	exactCfg := DefaultConfig(94, 2)
	exactCfg.Seed = 5
	cappedCfg := DefaultConfig(300, 2)
	cappedCfg.CandidateCap = 32
	cappedCfg.Seed = 5
	for _, mc := range []struct {
		prefix string
		cfg    Config
		ends   []end
	}{
		{"", exactCfg, append([]end{{"complete", "complete", steps}, {"cancel", "cancel", 3}, {"yield error", "yield error", 3}}, late...)},
		{"capped ", cappedCfg, append([]end{
			{"complete", "complete", steps},
			{"cancel after step 1", "cancel", 2},
			{"yield error after step 1", "yield error", 2},
		}, late...)},
	} {
		m := New(mc.cfg)
		fc := m.NewForecastState()
		defer fc.Release()
		st := m.newGenState(GenOptions{T: 1, Parallel: true}, nil)
		fans, exact := st.ps.fansOut(st.active), st.ps.exact
		st.release()
		if !fans || exact != (mc.cfg.N == 94) {
			t.Fatalf("N=%d cap %d: fans out %v, exact %v", mc.cfg.N, mc.cfg.CandidateCap, fans, exact)
		}
		forecast := func(ctx context.Context, o GenOptions, y func(*dyngraph.Snapshot) error) error {
			return m.ForecastStream(ctx, fc, o, y)
		}
		sentinel := errors.New("consumer gave up")
		for _, sc := range []struct {
			name   string
			stream streamFunc
		}{{"generate", m.GenerateStream}, {"forecast", forecast}} {
			name, stream := sc.name, sc.stream
			if err := stream(context.Background(), GenOptions{T: 2, Seed: 5, Parallel: true}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
				t.Fatalf("%s warm-up: %v", name, err)
			}
			for _, e := range mc.ends {
				t.Run(mc.prefix+name+" "+e.name, func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					// Another request's helpers may still be on their way out.
					waitFor(t, func() bool { return decodeHelpers() == 0 }, "earlier helpers to exit")
					base := runtime.NumGoroutine()
					before := tensor.ReadPoolStats()
					attrMLP := m.attrMLP
					yields, started := 0, helpersStarted.Load()
					src := &guardedSource{Source: rand.NewSource(13)}
					var err error
					var panicked any
					func() {
						defer func() { panicked = recover() }()
						defer src.closed.Store(true)
						err = stream(ctx, GenOptions{T: steps, Source: src, Parallel: true}, func(*dyngraph.Snapshot) error {
							yields++
							if yields == e.after {
								switch e.how {
								case "cancel":
									cancel()
								case "yield error":
									return sentinel
								case "panic":
									// A first-layer bias of the wrong width: the
									// next step's attribute decoder panics, before
									// taking a buffer, after that step has posted
									// the drawStep pass of the one after.
									bad := nn.NewMLP("attr.mlp", []int{mc.cfg.HiddenDim, mc.cfg.HiddenDim, mc.cfg.F}, tensor.ActLeakyReLU, rand.New(rand.NewSource(1)))
									bad.Layers[0].B.Value = tensor.New(1, mc.cfg.HiddenDim+1)
									m.attrMLP = bad
								}
							}
							return nil
						})
					}()
					m.attrMLP = attrMLP
					switch e.how {
					case "complete":
						if err != nil || yields != steps {
							t.Fatalf("err = %v after %d yields, want nil after %d", err, yields, steps)
						}
					case "cancel":
						if !errors.Is(err, context.Canceled) || yields != e.after {
							t.Fatalf("err = %v after %d yields, want context.Canceled after %d", err, yields, e.after)
						}
					case "yield error":
						if !errors.Is(err, sentinel) || yields != e.after {
							t.Fatalf("err = %v after %d yields, want the consumer's sentinel after %d", err, yields, e.after)
						}
					case "panic":
						if panicked == nil || yields != e.after {
							t.Fatalf("recovered %v after %d yields, want a panic after %d", panicked, yields, e.after)
						}
					}
					if e.how != "panic" && panicked != nil {
						panic(panicked)
					}
					if helpersStarted.Load() == started {
						t.Fatal("the stream started no helper goroutine; the check below would prove nothing")
					}
					after := tensor.ReadPoolStats()
					if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
						t.Fatalf("arena: %d gets vs %d puts", gets, puts)
					}
					waitFor(t, func() bool { return decodeHelpers() == 0 && runtime.NumGoroutine() <= base },
						fmt.Sprintf("the goroutine count to return to %d", base))
					if n := src.late.Load(); n != 0 {
						t.Fatalf("%d draws from the Source after the call returned", n)
					}
				})
			}
		}
	}
}

// guardedSource counts the draws taken from it once closed is set.
type guardedSource struct {
	rand.Source
	closed atomic.Bool
	late   atomic.Int64
}

func (s *guardedSource) Int63() int64 {
	if s.closed.Load() {
		s.late.Add(1)
	}
	return s.Source.Int63()
}

// decodeHelpers counts the goroutines running pairScorer.help.
func decodeHelpers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*pairScorer).help("))
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 2 s for %s (%d goroutines, %d decode helpers)", what, runtime.NumGoroutine(), decodeHelpers())
		}
	}
}

// TestGenerateCtxCancelled covers the collector path: a pre-cancelled
// context produces no sequence and the context's error.
func TestGenerateCtxCancelled(t *testing.T) {
	m := streamTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if seq, err := m.GenerateCtx(ctx, GenOptions{T: 5, Seed: 3}); err == nil || seq != nil {
		t.Fatalf("GenerateCtx on cancelled ctx: seq=%v err=%v, want nil + error", seq, err)
	}
}

// TestFitContextCancellation verifies that training checks its context
// between epochs, that an interrupted model stays untrained, and that the
// cancelled run returned every pooled buffer its windows took: arena gets
// and puts balance exactly.
func TestFitContextCancellation(t *testing.T) {
	g := toyGraph(12, 2, 4, 19)
	cfg := smallConfig(12, 2)
	cfg.Epochs = 50
	cfg.TBPTT = 1 // four windows, four optimizer steps an epoch

	fitCancelledAt2 := func(m *Model) (int, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		epochs := 0
		_, err := m.FitContext(ctx, g, WithProgress(func(TrainStats) {
			epochs++
			if epochs == 2 {
				cancel()
			}
		}))
		return epochs, err
	}

	// Warm-up on a separate model so caches that outlive a Fit (snapshot
	// CSR/edge-list caches on g) don't skew the counter delta.
	if _, err := fitCancelledAt2(New(cfg)); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm-up err = %v, want context.Canceled", err)
	}

	m := New(cfg)
	before := tensor.ReadPoolStats()
	epochs, err := fitCancelledAt2(m)
	after := tensor.ReadPoolStats()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if epochs != 2 {
		t.Fatalf("training ran %d epochs after cancellation at 2", epochs)
	}
	if m.Trained() {
		t.Fatal("cancelled training must leave the model untrained")
	}
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts {
		t.Fatalf("cancelled Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
	}
}

// TestFitNonFiniteLossReleasesArena drives the trainer's other early exit:
// a NaN weight makes the first window's loss non-finite, Fit reports it,
// the model stays untrained, the aborted window's buffers all went back to
// the arena (the main tape's and, with the NaN in a decoder or encoder
// weight, those of the branch tapes that recorded it), and training a new
// model afterwards works.
func TestFitNonFiniteLossReleasesArena(t *testing.T) {
	g := toyGraph(12, 2, 4, 19)
	cfg := smallConfig(12, 2)
	cfg.Epochs = 3
	cfg.TBPTT = 2

	// Warm-up, as in TestFitContextCancellation.
	if _, err := New(cfg).Fit(g); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		weight func(m *Model) *tensor.Matrix
	}{
		{"chain", func(m *Model) *tensor.Matrix { return m.postHid.W.Value }},
		{"branch", func(m *Model) *tensor.Matrix { return m.fTheta.Layers[0].W.Value }},
		{"encoder", func(m *Model) *tensor.Matrix { return m.enc.Params()[0].Value }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(cfg)
			tc.weight(m).Data[0] = math.NaN()
			before := tensor.ReadPoolStats()
			_, err := m.Fit(g)
			after := tensor.ReadPoolStats()
			if err == nil || !strings.Contains(err.Error(), "non-finite loss at epoch 0") {
				t.Fatalf("err = %v, want non-finite loss at epoch 0", err)
			}
			if m.Trained() {
				t.Fatal("a Fit that failed must leave the model untrained")
			}
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts {
				t.Fatalf("failed Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
			}

			fresh := New(cfg)
			if _, err := fresh.Fit(g); err != nil || !fresh.Trained() {
				t.Fatalf("Fit after a failed one: err = %v, trained = %v", err, fresh.Trained())
			}
		})
	}
}

// TestSnapshotRecycleReuse exercises the dyngraph recycling hook directly:
// a recycled snapshot is empty, reusable, and keeps no stale state.
func TestSnapshotRecycleReuse(t *testing.T) {
	s := dyngraph.NewSnapshot(6, 0)
	s.AddEdge(0, 1)
	s.AddEdge(2, 3)
	s.X = tensor.Get(6, 2)
	s.Recycle()
	if s.NumEdges() != 0 || s.X != nil {
		t.Fatalf("recycled snapshot not empty: %d edges, X=%v", s.NumEdges(), s.X)
	}
	if !s.AddEdge(3, 4) || s.NumEdges() != 1 || !s.HasEdge(3, 4) {
		t.Fatal("recycled snapshot unusable for new edges")
	}
	if s.HasEdge(0, 1) {
		t.Fatal("stale edge survived Recycle")
	}
}
