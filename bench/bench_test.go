package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"vrdag/internal/obs"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		sp := specs[name]
		a, b, other := sp.schedule(7), sp.schedule(7), sp.schedule(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different schedules", name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: different seeds gave the same schedule", name)
		}
		if len(a) != sp.callers {
			t.Fatalf("%s: %d callers scheduled, want %d", name, len(a), sp.callers)
		}
		for c, ops := range a {
			count := [2]int{}
			written := make([]int, max(sp.sessions, 1))
			for i, o := range ops {
				count[o.kind]++
				switch {
				case o.kind == primary && o.k != written[o.sess]:
					t.Errorf("%s caller %d op %d: writes window %d, session is at %d", name, c, i, o.k, written[o.sess])
				case o.kind == secondary && sp.sessions > 0 && written[o.sess] == 0:
					t.Errorf("%s caller %d op %d: forecast before the session's first write", name, c, i)
				}
				if o.kind == primary {
					written[o.sess]++
				}
			}
			if count != [2]int{sp.primaries, sp.secondaries} {
				t.Errorf("%s caller %d: %v ops by kind, want %d and %d", name, c, count, sp.primaries, sp.secondaries)
			}
			if sp.callers == 1 {
				continue
			}
			// Callers wait for each other after every segment, so every
			// segment must carry the same mix.
			per := sp.primaries + sp.secondaries
			for lo := 0; lo < per; lo += sp.segment {
				mix := [2]int{}
				for _, o := range ops[lo : lo+sp.segment] {
					mix[o.kind]++
				}
				if want := [2]int{sp.primaries * sp.segment / per, sp.secondaries * sp.segment / per}; mix != want {
					t.Errorf("%s caller %d segment at %d: %v ops by kind, want %v", name, c, lo, mix, want)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps the contract file at the repository root equal
// to what the program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why != specs[w.Name].why {
			t.Errorf("workload %d is %q with why %q; code has %q with why %q", i, w.Name, w.Why, workloadNames[i], specs[workloadNames[i]].why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(file.EndToEnd), len(endToEnd))
	}
	for i, e := range file.EndToEnd {
		m := endToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if e.Name != m.name || e.Unit != unitOf(m.name) || e.Better != better || e.Bound == nil || *e.Bound != m.bound {
			t.Errorf("end-to-end metric %d is %+v; code has %+v with unit %s", i, e, m, unitOf(m.name))
		}
	}
	if len(file.PerLayer) != len(layerNames) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(file.PerLayer), len(layerNames))
	}
	for i, e := range file.PerLayer {
		if e.Name != layerNames[i] || e.Unit != unitOf(e.Name) {
			t.Errorf("per-layer metric %d is %s in %s; code has %s in %s", i, e.Name, e.Unit, layerNames[i], unitOf(layerNames[i]))
		}
	}
}

// smokeRounds are the smoke test's rounds: the workload's own ops, a tenth
// as many, so the four set-ups are most of the 5 s the test takes.
var smokeRounds = map[string]struct{ primaries, secondaries, segment int }{
	"gen_offline": {2, 1, 1}, "train": {1, 1, 1}, "session_rw": {16, 2, 9}, "cluster_rw": {16, 2, 9},
}

// TestSmoke runs every workload for one set-up and one short round.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sp := *specs[name]
			sp.primaries, sp.secondaries, sp.segment = smokeRounds[name].primaries, smokeRounds[name].secondaries, smokeRounds[name].segment
			start := time.Now()
			res, detail, err := runTimed(&sp, 3, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start).Seconds()
			if !res.Correct || res.Failed != 0 || res.Attempted != sp.opsPerRound() {
				t.Errorf("correct=%v failed=%d attempted=%d, want one clean round of %d ops",
					res.Correct, res.Failed, res.Attempted, sp.opsPerRound())
			}
			if detail["failed_share"] != 0.0 {
				t.Errorf("failed_share = %v, want 0", detail["failed_share"])
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a finite value above 0", m.name, got, ok)
				}
				if got.Unit != unitOf(m.name) {
					t.Errorf("%s printed in %q, want %q", m.name, got.Unit, unitOf(m.name))
				}
			}
			// Set-up is timed inside the process, so it cannot include the
			// build and cannot exceed the run it is part of.
			if s := detail["raw"].(map[string]float64)["setup_s"]; s >= elapsed {
				t.Errorf("setup_s = %.3f s of a run that took %.3f s", s, elapsed)
			}
		})
	}
}

var traced = flag.Bool("traced", false, "also run a whole traced run (about 15 s)")

// TestTracedRun runs the traced run of the workload that enters the most
// layers; runTraced itself fails if a per-layer metric is missing.
func TestTracedRun(t *testing.T) {
	if !*traced {
		t.Skip("runs a whole traced run; pass -traced")
	}
	res, detail, err := runTraced(specs["session_rw"], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(layerNames) {
		t.Errorf("correct=%v with %d metrics, want %d", res.Correct, len(res.Metrics), len(layerNames))
	}
	if ratio := detail["server.stage_sum_over_handler"].(float64); math.Abs(ratio-1) > 0.05 {
		t.Errorf("stage self times plus unattributed are %.3f of handler time, want within 5%%", ratio)
	}
	if fi, err := os.Stat("out/session_rw.spans.ndjson"); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 100e6},
		{ID: 2, Name: "call", Start: 10e6, End: 90e6, Parent: 1},
		{ID: 3, Name: "step", Start: 10e6, End: 40e6, Parent: 2},
		{ID: 4, Name: "step", Start: 40e6, End: 80e6, Parent: 2},
	}
	want := map[string]float64{"op": 20, "call": 10, "step": 70} // ms
	if got := rec.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// The program's spans are flat: encode nests in ingest.fold by
	// containment, stream.flush overlaps decode without nesting.
	got := map[string]float64{}
	stageSelf(obs.TraceView{WallUS: 1000, Spans: []obs.SpanView{
		{Name: "admit", StartUS: 0, DurUS: 50},
		{Name: "wal.append", StartUS: 60, DurUS: 400},
		{Name: "ingest.fold", StartUS: 470, DurUS: 500},
		{Name: "encode", StartUS: 600, DurUS: 300},
	}}, got)
	wantStages := map[string]float64{"admit": 50, "wal.append": 400, "ingest.fold": 200, "encode": 300, "unattributed": 50}
	if !reflect.DeepEqual(got, wantStages) {
		t.Errorf("stageSelf = %v, want %v", got, wantStages)
	}
	got = map[string]float64{}
	stageSelf(obs.TraceView{WallUS: 1000, Spans: []obs.SpanView{
		{Name: "decode", StartUS: 0, DurUS: 400},
		{Name: "stream.flush", StartUS: 400, DurUS: 150},
		{Name: "decode", StartUS: 450, DurUS: 400},
	}}, got)
	wantStages = map[string]float64{"decode": 800, "stream.flush": 150, "unattributed": 50}
	if !reflect.DeepEqual(got, wantStages) {
		t.Errorf("stageSelf = %v, want %v", got, wantStages)
	}
}

func TestCompare(t *testing.T) {
	set := func(scale float64, failed int) *runSet {
		s := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
		for _, wl := range workloadNames {
			s.values[wl] = map[string][]float64{}
			for _, m := range endToEnd {
				v := 100.0
				if m.name == "primary_p50_ms" {
					v *= scale
				}
				s.values[wl][m.name] = []float64{v * 0.99, v, v * 1.01}
			}
			s.attempted[wl], s.failed[wl] = 1000, failed
		}
		return s
	}
	var out bytes.Buffer
	if code := compareSets(&out, set(1, 0), set(1.05, 0)); code != 0 {
		t.Errorf("5%% worse is within every bound, exit %d:\n%s", code, out.String())
	}
	if code := compareSets(&out, set(1, 0), set(1.5, 0)); code != 1 {
		t.Errorf("50%% worse is beyond the bound, exit %d", code)
	}
	if code := compareSets(&out, set(1, 0), set(1, 1)); code != 1 {
		t.Errorf("a rise in failed ops must fail, exit %d", code)
	}
	if code := compareSets(&out, set(1.5, 0), set(1, 0)); code != 0 {
		t.Errorf("an improvement must pass, exit %d", code)
	}
}
