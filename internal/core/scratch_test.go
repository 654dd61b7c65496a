package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// scratchModel fits a DefaultConfig model on a toy graph for two epochs:
// enough for the calibration to replay edges and compose attributes, so
// that every scratch buffer is in use.
func scratchModel(t *testing.T, n, cap int, seed int64) (*Model, *dyngraph.Sequence) {
	t.Helper()
	cfg := DefaultConfig(n, 2)
	cfg.CandidateCap = cap
	cfg.Epochs = 2
	cfg.Seed = seed
	g := toyGraph(n, 2, 8, seed)
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	return m, g
}

// streamBytes runs GenerateStream and returns the dyngraph.Save text of
// what it yielded.
func streamBytes(t *testing.T, m *Model, opts GenOptions) []byte {
	t.Helper()
	seq := &dyngraph.Sequence{N: m.Cfg.N, F: m.Cfg.F}
	if err := m.GenerateStream(context.Background(), opts, func(s *dyngraph.Snapshot) error {
		seq.Snapshots = append(seq.Snapshots, s.Clone())
		return nil
	}); err != nil {
		t.Error(err) // callable from the test's other goroutines
		return nil
	}
	var buf bytes.Buffer
	if err := dyngraph.Save(&buf, seq); err != nil {
		t.Error(err)
		return nil
	}
	return buf.Bytes()
}

// TestEncodeSnapshotSteadyStateGarbage bounds the heap bytes a warm
// EncodeSnapshot allocates, the session ingest path's per-snapshot cost.
// Once a ForecastState has encoded one snapshot it records on the eval tape
// and broadcast index it kept, so a call allocates only its tape ops'
// closures: about 1.7 KiB per snapshot at N=94, where a call that built
// its tape, context and index anew read about 10 KiB. The bound doubles
// under the race detector, as TestGenerateSteadyStateGarbage's does.
func TestEncodeSnapshotSteadyStateGarbage(t *testing.T) {
	m, g := scratchModel(t, 94, 0, 31)
	st := m.NewForecastState()
	defer st.Release()
	encode := func() {
		for _, s := range g.Snapshots {
			if err := m.EncodeSnapshot(st, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warms the state's tape, index and persistence copy and each
	// snapshot's cached CSR forms.
	encode()
	bound := uint64(3 << 10)
	if raceEnabled {
		bound *= 2
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 4; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		encode()
		runtime.ReadMemStats(&m1)
		least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/uint64(len(g.Snapshots)))
	}
	t.Logf("%d heap bytes per snapshot", least)
	if least > bound {
		t.Fatalf("a warm EncodeSnapshot allocated %d heap bytes, bound %d", least, bound)
	}
}

// TestGenerateSteadyStateGarbage bounds the heap bytes a warm request
// allocates: after one request has left its scratch with the model, a
// T=8 GenerateStream on an exact N=94 model and on a capped N=300 model
// allocate only the request's own structs, the tape ops' closures and the
// growth of recycled neighbour lists (about 21 and 28 KiB, least of
// four requests), and a collected T=8 Forecast that plus the sequence it
// returns (about 161 KiB). When each request built its decode buffers anew they read about
// 441 KiB, 1.1 MiB and 492 KiB. Under the race detector sync.Pool drops a
// quarter of what it is given (the arena's recycled Matrix headers), so
// the bounds double there.
func TestGenerateSteadyStateGarbage(t *testing.T) {
	exact, g := scratchModel(t, 94, 0, 31)
	capped, _ := scratchModel(t, 300, 32, 32)
	prefix, err := exact.Encode(context.Background(), &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:4]})
	if err != nil {
		t.Fatal(err)
	}
	defer prefix.Release()
	discard := func(*dyngraph.Snapshot) error { return nil }
	for _, tc := range []struct {
		name  string
		bound uint64
		run   func(seed int64) error
	}{
		{"stream exact N94", 48 << 10, func(seed int64) error {
			return exact.GenerateStream(context.Background(), GenOptions{T: 8, Seed: seed, Parallel: true}, discard)
		}},
		{"stream capped N300", 64 << 10, func(seed int64) error {
			return capped.GenerateStream(context.Background(), GenOptions{T: 8, Seed: seed, Parallel: true}, discard)
		}},
		{"forecast N94", 224 << 10, func(seed int64) error {
			_, err := exact.Forecast(context.Background(), prefix, GenOptions{T: 8, Seed: seed, Parallel: true})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(1); err != nil { // leaves the scratch with the model
				t.Fatal(err)
			}
			bound := tc.bound
			if raceEnabled {
				bound *= 2
			}
			least := uint64(math.MaxUint64)
			for try := 0; try < 4; try++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				if err := tc.run(int64(2 + try)); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			}
			t.Logf("%d heap bytes per request", least)
			if least > bound {
				t.Fatalf("a warm request allocated %d heap bytes, bound %d", least, bound)
			}
		})
	}
}

// TestScratchConcurrentRequests: two goroutines streaming from one model
// at once, with different seeds, each hold a scratch of their own, and
// each yields the bytes of its serial run, also when the scratch it takes
// is the one the other request or an earlier one left. Exact decoding at
// N=94 and capped decoding at N=300.
func TestScratchConcurrentRequests(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{{94, 0}, {300, 32}} {
		t.Run(fmt.Sprintf("N%d cap%d", tc.n, tc.cap), func(t *testing.T) {
			m, _ := scratchModel(t, tc.n, tc.cap, 34)
			seeds := []int64{44, 45}
			opts := func(seed int64) GenOptions { return GenOptions{T: 5, Seed: seed, Parallel: true} }
			want := make([][]byte, len(seeds))
			for i, seed := range seeds {
				want[i] = streamBytes(t, m, opts(seed))
			}
			for round := 0; round < 3; round++ {
				got := make([][]byte, len(seeds))
				var wg sync.WaitGroup
				for i, seed := range seeds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = streamBytes(t, m, opts(seed))
					}()
				}
				wg.Wait()
				for i := range seeds {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("round %d: seed %d streamed beside another request differs from its serial run", round, seeds[i])
					}
				}
			}
		})
	}
}

// TestScratchFollowsCandidateCap: one model whose CandidateCap goes exact,
// capped, exact between requests yields, each time, the bytes of a fresh
// copy of the model at that cap. The scratch a request leaves is sized for
// its decoding (capped decoding's candidate lists and dedup marks, exact
// decoding's N−1 pair slots); one handed to a request of another shape
// would decode wrong or panic.
func TestScratchFollowsCandidateCap(t *testing.T) {
	m, _ := scratchModel(t, 300, 0, 35)
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	opts := GenOptions{T: 5, Seed: 46, Parallel: true}
	for i, cap := range []int{0, 32, 0, 32} {
		fresh, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fresh.Cfg.CandidateCap = cap
		m.Cfg.CandidateCap = cap
		if got, want := streamBytes(t, m, opts), streamBytes(t, fresh, opts); !bytes.Equal(got, want) {
			t.Fatalf("request %d at cap %d: the reused model's bytes differ from a fresh model's", i, cap)
		}
	}
}

// TestScratchNotReturnedAfterPanic: a request whose step panics leaves its
// scratch to the collector, since the step may have stopped mid-write (a
// candidate's dedup marks set, a helper still on its chunk). The model's
// next requests build a new scratch and pass it on, and still generate and
// forecast TestGenerateBytesPinned's bytes.
func TestScratchNotReturnedAfterPanic(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("the digest was taken with the FMA exp path")
	}
	cfg := DefaultConfig(94, 2)
	cfg.Epochs = 3
	cfg.Seed = 71
	g := toyGraph(cfg.N, 2, 8, 71)
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	if err := m.GenerateStream(context.Background(), GenOptions{T: 3, Seed: 5, Parallel: true}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
		t.Fatal(err)
	}
	spare := func() *genScratch {
		m.scratch.mu.Lock()
		defer m.scratch.mu.Unlock()
		return m.scratch.spare
	}
	if spare() == nil {
		t.Fatal("a completed request left no scratch with the model")
	}

	attrMLP := m.attrMLP
	func() {
		defer func() {
			m.attrMLP = attrMLP
			if recover() == nil {
				t.Fatal("the request did not panic")
			}
		}()
		yields := 0
		_ = m.GenerateStream(context.Background(), GenOptions{T: 6, Seed: 6, Parallel: true}, func(*dyngraph.Snapshot) error {
			if yields++; yields == 2 {
				// A first-layer bias of the wrong width: the next step's
				// attribute decoder panics.
				bad := nn.NewMLP("attr.mlp", []int{cfg.HiddenDim, cfg.HiddenDim, cfg.F}, tensor.ActLeakyReLU, rand.New(rand.NewSource(1)))
				bad.Layers[0].B.Value = tensor.New(1, cfg.HiddenDim+1)
				m.attrMLP = bad
			}
			return nil
		})
	}()
	if spare() != nil {
		t.Fatal("the request that panicked returned its scratch")
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
	if got, want := hex.EncodeToString(h.Sum(nil)), "7c638f7978cfef5b0c19ac68504995ab0221fba97410b1241a8e6715fb81ed6e"; got != want {
		t.Fatalf("digest after a panicked request %s, want TestGenerateBytesPinned's %s", got, want)
	}
}

// TestScratchSpareDroppedWhenIdle: the spare scratch a model keeps is
// dropped when its idle timer fires, and the next request keeps one again.
func TestScratchSpareDroppedWhenIdle(t *testing.T) {
	m := New(smallConfig(20, 2))
	generate := func() {
		t.Helper()
		if err := m.GenerateStream(context.Background(), GenOptions{T: 2, Seed: 7}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	held := func() bool {
		m.scratch.mu.Lock()
		defer m.scratch.mu.Unlock()
		return m.scratch.spare != nil
	}
	generate()
	if !held() {
		t.Fatal("a completed request left no scratch with the model")
	}
	m.scratch.mu.Lock()
	m.scratch.idle.Reset(time.Millisecond) // as if scratchIdle had passed
	m.scratch.mu.Unlock()
	for deadline := time.Now().Add(2 * time.Second); held(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the idle timer fired 2 s ago and the spare is still held")
		}
	}
	generate()
	if !held() {
		t.Fatal("a request after the spare was dropped left no scratch")
	}
}

// TestScratchSpareDoesNotHoldModel: the idle timer a spare arms holds its
// model weakly, so a model nobody references is collected with its spare
// and not a scratchIdle later (a process that rebuilds its models would
// otherwise keep every discarded one resident for that long).
func TestScratchSpareDoesNotHoldModel(t *testing.T) {
	m := New(smallConfig(20, 2))
	if err := m.GenerateStream(context.Background(), GenOptions{T: 2, Seed: 7}, func(*dyngraph.Snapshot) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if m.scratch.idle == nil {
		t.Fatal("a completed request armed no idle timer")
	}
	wm := weak.Make(m)
	m = nil
	for i := 0; i < 10 && wm.Value() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if wm.Value() != nil {
		t.Fatal("a model nobody references outlived ten collections while its spare's idle timer ran")
	}
}
