package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"vrdag/internal/dyngraph"
)

// TestCalibrationOffIgnoresStatistics holds DegreeCalibration to being the
// one switch over what generation copies from training. A fitted model's
// calibration is swapped for one captured from a denser sequence with
// shifted attributes. With the switch off, the swap must leave the
// generated bytes (exact, and capped at 8 candidates), a forecast from a
// three-snapshot prefix, and the draws each takes from its Source as they
// were. With it on, the same swap must change all of them, which shows
// that the comparison reaches the seams.
func TestCalibrationOffIgnoresStatistics(t *testing.T) {
	const n = 30
	g := toyGraph(n, 2, 6, 11)
	cfg := smallConfig(n, 2)
	cfg.Epochs = 2
	cfg.Seed = 11
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	if m.cal.persistRate == 0 || m.cal.attrMean == nil {
		t.Fatal("the fit captured no persistence rate or attribute moments: the swap would reach no seam")
	}
	h := toyGraph(n, 2, 6, 12)
	for _, s := range h.Snapshots {
		for u := 0; u < n; u++ {
			s.AddEdge(u, (u+1)%n)
			s.AddEdge(u, (u+7)%n)
		}
		for i := range s.X.Data {
			s.X.Data[i] = 3*s.X.Data[i] + 5
		}
	}
	own, other := m.cal, newCalibration(h)

	prefix := &dyngraph.Sequence{N: g.N, F: g.F, Snapshots: g.Snapshots[:3]}
	runs := []struct {
		name     string
		cap      int
		forecast bool
	}{{"exact", 0, false}, {"capped", 8, false}, {"forecast", 0, true}}
	// run returns each run's dyngraph.Save bytes and Source draw count.
	run := func() (out [3][]byte, draws [3]uint64) {
		for k, r := range runs {
			m.Cfg.CandidateCap = r.cap
			src := &drawCounter{src: rand.NewSource(13).(rand.Source64)}
			opts := GenOptions{T: 4, Source: src, Parallel: true}
			var seq *dyngraph.Sequence
			var err error
			if r.forecast {
				st, encErr := m.Encode(context.Background(), prefix)
				if encErr != nil {
					t.Fatal(encErr)
				}
				seq, err = m.Forecast(context.Background(), st, opts)
				st.Release()
			} else {
				seq, err = m.GenerateOpts(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dyngraph.Save(&buf, seq); err != nil {
				t.Fatal(err)
			}
			out[k], draws[k] = buf.Bytes(), src.n
		}
		return out, draws
	}

	for _, on := range []bool{false, true} {
		m.Cfg.DegreeCalibration = on
		m.cal = own
		before, beforeDraws := run()
		m.cal = other
		after, afterDraws := run()
		for k, r := range runs {
			same := bytes.Equal(before[k], after[k])
			sameDraws := beforeDraws[k] == afterDraws[k]
			switch {
			case !on && !same:
				t.Errorf("calibration off, %s: swapping the statistics changed the output", r.name)
			case !on && !sameDraws:
				t.Errorf("calibration off, %s: swapping the statistics changed the draws, %d to %d", r.name, beforeDraws[k], afterDraws[k])
			case on && same:
				t.Errorf("calibration on, %s: swapping the statistics left the output as it was", r.name)
			case on && sameDraws:
				t.Errorf("calibration on, %s: swapping the statistics left the draws at %d", r.name, beforeDraws[k])
			}
		}
	}
}
