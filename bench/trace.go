package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vrdag/internal/obs"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer's public API. Times are nanoseconds since the recorder started.
// Parent is the id of the span that caused this one (0 for an op's root);
// Op identifies the operation, shared by every span under one root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the timed run pays one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// opID names an op; it doubles as the X-Vrdag-Trace id sent with served
// ops, so the program's own spans can be found again by it.
func opID(round, caller, index int) string {
	return fmt.Sprintf("bench-r%d-c%d-i%d", round, caller, index)
}

func (r *recorder) beginOp(name string, round, caller, index int) int {
	if r == nil {
		return 0
	}
	return r.add(span{Name: name, Start: r.now(), Op: opID(round, caller, index)})
}

// begin opens a child of parent and inherits its op.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	return r.add(span{Name: name, Start: r.now(), Parent: parent})
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	if s.Parent > 0 {
		s.Op = r.spans[s.Parent-1].Op
	}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// addObs appends the program's own spans for one op (read, not modified,
// from its tracer) under parent, stamped with the node that recorded them.
func (r *recorder) addObs(parent int, node string, v obs.TraceView) {
	base := v.Start.Sub(r.t0).Nanoseconds()
	root := r.add(span{Name: "obs." + node + ".request", Start: base, End: base + v.WallUS*1000, Parent: parent})
	for _, sp := range v.Spans {
		start := base + sp.StartUS*1000
		r.add(span{Name: "obs." + node + "." + sp.Name, Start: start, End: start + sp.DurUS*1000, Parent: root})
	}
}

// write stores the spans as NDJSON, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name and in milliseconds, each span's duration
// minus the part its direct children cover: the time the layer itself spent.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += float64(max(s.End-s.Start-child[s.ID], 0)) / 1e6
	}
	return out
}

// stageSelf splits one of the program's traces into self time per stage
// name. Its spans are a flat list; nesting (encode inside ingest.fold) is
// recovered from containment. stream.flush is an accumulated interval laid
// over the decode spans it interleaves with, so it neither contains nor is
// contained. The remainder of the trace's wall time is "unattributed".
func stageSelf(v obs.TraceView, into map[string]float64) {
	spans := append([]obs.SpanView(nil), v.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].DurUS > spans[j].DurUS
	})
	var top float64 // time covered by outermost spans
	var open []int  // stack of enclosing spans
	self := make([]float64, len(spans))
	for i, sp := range spans {
		self[i] = float64(sp.DurUS)
		if sp.Name == "stream.flush" {
			top += float64(sp.DurUS)
			continue
		}
		for len(open) > 0 {
			o := spans[open[len(open)-1]]
			if sp.StartUS+sp.DurUS <= o.StartUS+o.DurUS {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			self[open[len(open)-1]] -= float64(sp.DurUS)
		} else {
			top += float64(sp.DurUS)
		}
		open = append(open, i)
	}
	for i, sp := range spans {
		into[sp.Name] += max(self[i], 0)
	}
	into["unattributed"] += max(float64(v.WallUS)-top, 0)
}
