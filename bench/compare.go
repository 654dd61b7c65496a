package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// endToEnd is every end-to-end metric with the direction that is better
// and the bound: the share of the first set's median by which the second
// may be worse before -compare reports a regression. BENCHMARK.json
// carries the same table for the driver; the smoke test keeps them equal.
var endToEnd = []struct {
	name   string
	higher bool // higher is better
	bound  float64
}{
	{"setup_s", false, 0.25},
	{"ops_per_s", true, 0.25},
	{"primary_p50_ms", false, 0.25},
	{"secondary_p50_ms", false, 0.25},
	{"cpu_ms_per_op", false, 0.25},
	{"peak_rss_mb", false, 0.20},
}

// runSet is one file of results: metric values and failures per workload.
type runSet struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	attempted map[string]int
	failed    map[string]int
}

// readSet parses concatenated bench output: each timed run is a header
// line (the stamp names the workload) followed by its result line.
// Traced runs are skipped; their metrics have no bounds.
func readSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	var cur *stamp
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		var row struct {
			Stamp *stamp `json:"stamp"`
			result
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		switch {
		case row.Stamp != nil:
			cur = row.Stamp
		case row.Metrics != nil && cur != nil && cur.Trace == 0:
			if set.values[cur.Workload] == nil {
				set.values[cur.Workload] = map[string][]float64{}
			}
			for name, m := range row.Metrics {
				set.values[cur.Workload][name] = append(set.values[cur.Workload][name], m.Value)
			}
			set.attempted[cur.Workload] += row.Attempted
			set.failed[cur.Workload] += row.Failed
			cur = nil
		}
	}
	return set, sc.Err()
}

// compareFiles prints, per workload and metric, both medians, how much
// worse the second is, and the bound; it returns 1 if any metric is worse
// by more than its bound or the share of failed ops rose.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2]*runSet
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	return compareSets(w, sets[0], sets[1])
}

func compareSets(w io.Writer, a, b *runSet) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\truns a\tmedian a\truns b\tmedian b\tworse by\tbound\t")
	code := 0
	for _, wl := range workloadNames {
		if a.values[wl] == nil || b.values[wl] == nil {
			fmt.Fprintf(tw, "%s\t(missing from a set)\t\t\t\t\t\t\tFAIL\n", wl)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.values[wl][m.name], b.values[wl][m.name]
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			worse := (mb - ma) / ma
			if m.higher {
				worse = (ma - mb) / ma
			}
			verdict := ""
			if len(va) == 0 || len(vb) == 0 || worse > m.bound {
				verdict, code = "FAIL", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t%d\t%.4f\t%+.1f%%\t%.0f%%\t%s\n",
				wl, m.name, len(va), ma, len(vb), mb, 100*worse, 100*m.bound, verdict)
		}
		sa := float64(a.failed[wl]) / float64(max(a.attempted[wl], 1))
		sb := float64(b.failed[wl]) / float64(max(b.attempted[wl], 1))
		verdict := ""
		if sb > sa {
			verdict, code = "FAIL", 1
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t\t%.6f\t\t%.6f\t\tany\t%s\n", wl, sa, sb, verdict)
	}
	tw.Flush()
	return code
}
