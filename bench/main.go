// Command bench is the repository's performance benchmark: four
// closed-loop workloads over the VRDAG stack (offline generation,
// training, a durable single-node session server, a 3-node in-process
// cluster), each run in its own process, plus a traced run that splits
// the time per layer. README.md in this directory defines every workload
// and metric; BENCHMARK.json at the repository root is the contract the
// driver checks.
//
//	go run -C bench . --workload gen_offline --seed 1 --seconds 8 --trace 0
//	go run -C bench . --workload session_rw --seed 1 --seconds 8 --trace 1
//	go run -C bench . -compare a.ndjson b.ndjson
//
// The run shape (callers, op sizes, ops per round, set-up repeats) is
// pinned in code; the flags above are the only ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"vrdag/internal/tensor"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the machine and the run; it is printed on the line
// before the result so a number is never separated from where it came from.
type stamp struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       int      `json:"trace"`
	Seconds     float64  `json:"seconds"`
	Commit      string   `json:"commit"`
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Backend     string   `json:"backend"`
	CPUFeatures []string `json:"cpu_features"`
}

// header is the first line of standard output: the stamp plus whatever a
// reader needs beside the metrics (sample counts, rounds, digests).
type header struct {
	Stamp  stamp          `json:"stamp"`
	Detail map[string]any `json:"detail"`
}

func main() {
	var (
		workload = flag.String("workload", "", "one of gen_offline, train, session_rw, cluster_rw")
		seed     = flag.Int64("seed", 1, "drives the replica, the model seed, the op schedule and every per-op seed")
		seconds  = flag.Float64("seconds", 8, "how long the timed rounds run at reference speed; fixes the round count")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.ndjson b.ndjson")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two files of concatenated bench output")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	sp, ok := specs[*workload]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("usage: bench -workload <name> -seed <n> -seconds <s> -trace <0|1>")
	}
	// The run shape is pinned: at most 4 procs, whatever the box has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var (
		res    result
		detail map[string]any
		err    error
	)
	if *trace == 1 {
		res, detail, err = runTraced(sp, *seed)
	} else {
		// The round count is fixed before the first op: every run at the
		// same --seconds does identical work.
		rounds := max(1, int(math.Round(*seconds/sp.roundS)))
		res, detail, err = runTimed(sp, *seed, rounds, setups)
	}
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	emit(os.Stdout, header{Stamp: newStamp(sp.name, *seed, *trace, *seconds), Detail: detail})
	emit(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func newStamp(workload string, seed int64, trace int, seconds float64) stamp {
	return stamp{
		Workload:    workload,
		Seed:        seed,
		Trace:       trace,
		Seconds:     seconds,
		Commit:      commit(),
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Backend:     tensor.ActiveBackend(),
		CPUFeatures: tensor.CPUFeatures(),
	}
}

// commit names the source the numbers came from. The driver's checkout
// is not a git repository, so "unknown" is a normal answer there.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func emit(f *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Fprintf(f, "%s\n", b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// metricsOf attaches units to values. A non-finite value is a bug in the
// benchmark, not a measurement, so it fails the run instead of printing.
func metricsOf(values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return out, nil
}
