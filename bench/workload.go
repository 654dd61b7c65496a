package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vrdag/internal/obs"
)

// warmPrimary is the number of primary warm-up ops inside every set-up,
// fully checked; one secondary follows them.
const warmPrimary = 4

const (
	primary   = 0
	secondary = 1
)

// op is one scheduled operation. Everything the program under test sees
// (which session, which window, which generation seed) is in here and is a
// pure function of -seed.
type op struct {
	kind int   // primary or secondary
	sess int   // session index within the caller (served workloads)
	k    int   // primary: index of the window this write carries
	seed int64 // generation / forecast / model seed
}

// spec is one workload: its shape and how to build what it runs against.
type spec struct {
	name        string
	why         string
	callers     int // closed-loop callers, each waiting for its reply
	primaries   int // primary ops per caller per round
	secondaries int // secondary ops per caller per round
	sessions    int // sessions per caller (served workloads), else 0

	// segment is how many ops each caller sends between two readings of
	// the machine's speed, about a tenth of a second's worth. With several
	// callers it divides a round evenly and holds a whole number of each kind.
	segment int

	// roundS is about how long a round takes at reference speed. It only
	// turns --seconds into a round count, fixed for the run.
	roundS float64

	// probeScale is the email-replica scale of the workload's largest
	// model; the traced run probes the lower layers at that model's shapes.
	probeScale float64

	setup func(sp *spec, seed int64, o rigOpts) (rig, error)
}

// rigOpts is what a set-up needs beyond the seed.
type rigOpts struct {
	ordinal int                // which set-up of the run this is (names its sessions)
	tracer  func() *obs.Tracer // per-server tracer; nil keeps server.Config's default
}

// rig is a workload set up and warm: ops can run against it.
type rig interface {
	// do performs one op and checks its output (status, snapshot count,
	// byte length). index is the op's position in its caller's schedule.
	do(rec *recorder, parent int, round, caller, index int, o op) error
	// endRound is untimed housekeeping between rounds (drop sessions).
	endRound(round int) error
	close()
}

var workloadNames = []string{"gen_offline", "train", "session_rw", "cluster_rw"}

var specs = map[string]*spec{
	"gen_offline": {
		name: "gen_offline", callers: 1, primaries: 10, secondaries: 1, segment: 1, roundS: 0.75, probeScale: 1.0,
		why:   "the paper's headline, generation with no server: core decode and tensor kernels do all the work; small N is dispatch-bound, large N kernel- and candidate-bound",
		setup: setupGen,
	},
	"train": {
		name: "train", callers: 1, primaries: 4, secondaries: 1, segment: 1, roundS: 1.05, probeScale: 0.5,
		why:   "tape/autodiff, nn, gnn and Adam do the work, decode none: full-sequence BPTT at small N is bookkeeping-bound, TBPTT at N=945 is GEMM/SpMM-bound",
		setup: setupTrain,
	},
	"session_rw": {
		name: "session_rw", callers: 2, primaries: 160, secondaries: 20, sessions: 4, segment: 36, roundS: 0.7, probeScale: 0.05,
		why:   "durable ingest beside forecasts on the same sessions over loopback HTTP: durable and ingest dominate writes, core decode and JSON the reads",
		setup: setupSingle,
	},
	"cluster_rw": {
		name: "cluster_rw", callers: 2, primaries: 160, secondaries: 20, sessions: 4, segment: 36, roundS: 0.85, probeScale: 0.05,
		why:   "the session_rw schedule through a 3-node cluster (R=2, ack after replicate, one op in three local): the difference from session_rw is the proxy and replicate cost",
		setup: setupCluster,
	},
}

func (s *spec) opsPerRound() int { return s.callers * (s.primaries + s.secondaries) }

// schedule derives every caller's op list from the seed. The list is the
// same for every round of a run: rounds repeat identical work against
// fresh sessions. Ops are shuffled within blocks. With one caller the
// whole round is one block. With more, a block is a segment and every
// block carries the round's mix of kinds, so that callers reach the end of
// a segment, where they wait for each other, at about the same time.
// Served workloads open each session with a write, since a forecast needs
// a session to exist.
func (s *spec) schedule(seed int64) [][]op {
	perCaller := s.primaries + s.secondaries
	block := perCaller
	if s.callers > 1 {
		block = s.segment
	}
	sched := make([][]op, s.callers)
	for c := range sched {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 17))
		ops := make([]op, 0, perCaller)
		written := make([]int, max(s.sessions, 1))
		for i := 0; i < s.sessions; i++ {
			ops = append(ops, op{kind: primary, sess: i, seed: rng.Int63()})
			written[i]++
		}
		for lo := 0; lo < perCaller; lo += block {
			kinds := make([]int, 0, block)
			for i := len(ops) - lo; i < s.primaries*block/perCaller; i++ {
				kinds = append(kinds, primary)
			}
			for i := 0; i < s.secondaries*block/perCaller; i++ {
				kinds = append(kinds, secondary)
			}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			for _, kind := range kinds {
				o := op{kind: kind, seed: rng.Int63()}
				if s.sessions > 0 {
					o.sess = rng.Intn(s.sessions)
				}
				if kind == primary {
					o.k = written[o.sess]
					written[o.sess]++
				}
				ops = append(ops, o)
			}
		}
		sched[c] = ops
	}
	return sched
}

// setups is how many times a timed run sets up, each time from scratch;
// the last is kept and used.
const setups = 5

// roundResult is what one round measured, as the clock read it.
type roundResult struct {
	wall   time.Duration     // the segments' lengths, first op sent to last reply checked, added up
	cpu    time.Duration     // process user+system CPU over the segments
	lat    [][]time.Duration // [caller][index], aligned with the schedule
	kernel []float64         // the calibrations around and between the segments, ms
	errs   []error
	failed int
}

// runRound runs one round: every caller walks its schedule, waiting for
// each reply before sending the next op. Every `segment` ops the callers
// wait for each other, so that the machine's speed is read with no op in
// flight; what a caller waits there is at most one op in a segment.
func runRound(r rig, sched [][]op, segment, round int, rec *recorder) roundResult {
	res := roundResult{lat: make([][]time.Duration, len(sched))}
	for c := range sched {
		res.lat[c] = make([]time.Duration, len(sched[c]))
	}
	var mu sync.Mutex
	for lo := 0; lo < len(sched[0]); lo += segment {
		res.kernel = append(res.kernel, calibrate(calibrateSegment))
		var wg sync.WaitGroup
		cpu0, start := processCPU(), time.Now()
		for c := range sched {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := lo; i < min(lo+segment, len(sched[c])); i++ {
					o := sched[c][i]
					id := rec.beginOp(opName(o.kind), round, c, i)
					t0 := time.Now()
					err := r.do(rec, id, round, c, i, o)
					res.lat[c][i] = time.Since(t0)
					rec.end(id)
					if err != nil {
						mu.Lock()
						res.failed++
						if len(res.errs) < 4 {
							res.errs = append(res.errs, fmt.Errorf("round %d caller %d op %d: %w", round, c, i, err))
						}
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		res.wall += time.Since(start)
		res.cpu += processCPU() - cpu0
	}
	res.kernel = append(res.kernel, calibrate(calibrateSegment))
	return res
}

func opName(kind int) string {
	if kind == primary {
		return "op.primary"
	}
	return "op.secondary"
}

// byKind pools a round's latencies of one kind, in milliseconds.
func (r roundResult) byKind(sched [][]op, kind int) []float64 {
	var out []float64
	for c := range sched {
		for i, o := range sched[c] {
			if o.kind == kind {
				out = append(out, ms(r.lat[c][i]))
			}
		}
	}
	return out
}

// opsPerS is the round's throughput as the clock read it.
func (r roundResult) opsPerS(sp *spec) float64 { return float64(sp.opsPerRound()) / r.wall.Seconds() }

// roundValues are one round's end-to-end numbers, in roundMetrics' order.
type roundValues [4]float64

var roundMetrics = [4]string{"ops_per_s", "primary_p50_ms", "secondary_p50_ms", "cpu_ms_per_op"}

// values reduces a round to the clock's own readings.
func (r roundResult) values(sp *spec, sched [][]op) roundValues {
	return roundValues{
		r.opsPerS(sp),
		quantile(r.byKind(sched, primary), 0.5),
		quantile(r.byKind(sched, secondary), 0.5),
		ms(r.cpu) / float64(sp.opsPerRound()),
	}
}

// atRef is the round at reference speed, given how slow the machine ran
// over it.
func (v roundValues) atRef(slow float64) roundValues {
	return roundValues{v[0] * slow, v[1] / slow, v[2] / slow, v[3] / slow}
}

// runTimed is the timed run: set up `setups` times from scratch keeping
// the last, then run the round `rounds` times.
func runTimed(sp *spec, seed int64, rounds, setups int) (result, map[string]any, error) {
	var (
		r                          rig
		setupS, setupAt, setupSlow []float64 // raw, at reference speed, and the slowdown between them
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		k0 := calibrate(calibrateSetup)
		t0 := time.Now()
		var err error
		if r, err = sp.setup(sp, seed, rigOpts{ordinal: i}); err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		took := time.Since(t0).Seconds()
		slow := slowdown(k0, calibrate(calibrateSetup))
		setupS, setupAt, setupSlow = append(setupS, took), append(setupAt, took/slow), append(setupSlow, slow)
	}
	defer r.close()

	sched := sp.schedule(seed)
	attempted := 0
	for _, ops := range sched {
		attempted += rounds * len(ops)
	}
	debug.FreeOSMemory() // so the peak below is the timed rounds', not the set-ups'
	resetPeakRSS()
	var (
		raw, atRef []roundValues
		slows      []float64
		slowest    [2]float64 // the longest op of each kind, ms: a stall shows here, not in a median
		failed     int
	)
	for round := 0; round < rounds; round++ {
		runtime.GC()
		rr := runRound(r, sched, sp.segment, round, nil)
		slow := slowdown(rr.kernel...)
		v := rr.values(sp, sched)
		raw, atRef, slows = append(raw, v), append(atRef, v.atRef(slow)), append(slows, slow)
		for kind := range slowest {
			slowest[kind] = max(slowest[kind], quantile(rr.byKind(sched, kind), 1))
		}
		failed += rr.failed
		for _, err := range rr.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		}
		if err := r.endRound(round); err != nil {
			return result{}, nil, fmt.Errorf("after round %d: %w", round, err)
		}
	}
	peak := peakRSSMB()

	// A run reports the median of its rounds and of its set-ups.
	reduce := func(rv []roundValues, setup []float64) map[string]float64 {
		out := map[string]float64{"setup_s": quantile(setup, 0.5), "peak_rss_mb": peak}
		for j, name := range roundMetrics {
			col := make([]float64, len(rv))
			for i, v := range rv {
				col[i] = v[j]
			}
			out[name] = quantile(col, 0.5)
		}
		return out
	}
	metrics, err := metricsOf(reduce(atRef, setupAt))
	if err != nil {
		return result{}, nil, err
	}
	detail := map[string]any{
		"rounds":            rounds,
		"ops_per_round":     sp.opsPerRound(),
		"primary_samples":   rounds * sp.callers * sp.primaries,
		"secondary_samples": rounds * sp.callers * sp.secondaries,
		"failed_share":      float64(failed) / float64(attempted),
		"slowest_op_ms":     map[string]float64{"primary": slowest[primary], "secondary": slowest[secondary]},
		"raw":               reduce(raw, setupS), // the same reductions of the clock's own readings
		"setup_s_raw":       setupS,
		"setup_slowdown":    setupSlow,
		"round_columns":     roundMetrics,
		"rounds_raw":        raw,
		"round_slowdown":    slows,
	}
	if g, ok := r.(*genRig); ok {
		detail["core.output_digest"] = g.digest
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, detail, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs with linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(len(xs), 1)) }

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS rewinds VmHWM so the peak covers the timed rounds, not the
// set-ups before them. Best effort: where the kernel refuses, the peak
// includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// unitOf derives a metric's unit from its name, so a name can never be
// printed with the wrong one.
func unitOf(name string) string {
	if strings.Contains(name, "_ms_per_") {
		return "ms"
	}
	for _, u := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_s", "s"}, {"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"},
		{"_mb", "MB"}, {"_pct", "%"}, {"_ratio", "ratio"}, {"_share", "ratio"},
		{"_mmd", "score"}, {"_jsd", "score"}, {"bytes_per_op", "B"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
