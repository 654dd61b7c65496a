package ingest

import (
	"bytes"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// foldPooled folds data on a Pooled Stream, cloning each snapshot inside
// emit (the Stream takes it back once emit returns), and reports how many
// more arena buffers the fold took than it returned.
func foldPooled(data []byte, opts Options) ([]*dyngraph.Snapshot, int64, error) {
	opts.Pooled = true
	before := tensor.ReadPoolStats()
	s, err := NewStream(opts)
	if err != nil {
		return nil, 0, err
	}
	var snaps []*dyngraph.Snapshot
	emit := func(snap *dyngraph.Snapshot) error {
		snaps = append(snaps, snap.Clone())
		return nil
	}
	err = s.Fold(bytes.NewReader(data), emit)
	if err == nil {
		err = s.Flush(emit)
	}
	s.DiscardPending()
	after := tensor.ReadPoolStats()
	return snaps, (after.Gets - before.Gets) - (after.Puts - before.Puts), err
}

// FuzzFold drives the edge-stream parser with arbitrary bytes under both
// format modes and several option shapes. The contract it enforces is the
// package's determinism promise: any input either errors or folds into a
// valid, reproducible sequence — malformed lines, out-of-order timestamps,
// duplicate edges, absurd window jumps, unknown nodes; none of it may
// panic, and a successful fold run twice must agree exactly. The same
// bytes folded in Pooled mode, where one snapshot is reused for every
// window, must give the same snapshots and the same error, and leave the
// tensor arena balanced.
func FuzzFold(f *testing.F) {
	f.Add([]byte("a,b,0\nb,c,1\nc,a,2\n"))
	f.Add([]byte("src,dst,t\na,b,0\na,b,0\n"))
	f.Add([]byte("a,b,0,1.5,2.5\nb,a,1,0.25,0.75\n"))
	f.Add([]byte(`{"src":"a","dst":"b","t":0,"x":[1,2]}` + "\n" + `{"src":7,"dst":9,"t":3.5}` + "\n"))
	f.Add([]byte("c,a,4\na,b,5\nc,a,4\n"))        // out-of-order tail
	f.Add([]byte("a,b,1e300\nb,a,1e301\n"))       // absurd window jump
	f.Add([]byte("a,b,-3\nb,c,-2.5\n"))           // negative timestamps
	f.Add([]byte("# comment\n\n  \nq,r,0\n"))     // blanks and comments
	f.Add([]byte(`{"src":}` + "\n"))              // malformed JSON
	f.Add([]byte("\x1f\x8b\x08\x00garbage"))      // gzip magic, corrupt body
	f.Add([]byte("x,y,0\ny,z,0\nz,x,0\nw,x,0\n")) // node-capacity overflow

	optSets := []Options{
		{N: 8},
		{N: 8, F: 2, CarryAttrs: true, Window: 2},
		{N: 3, DropUnknown: true},
		{N: 4, F: 2, Nodes: map[string]int{"a": 0, "b": 3}, DropUnknown: true, MaxWindowGap: 16},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, opts := range optSets {
			g1, err := ReadSequence(bytes.NewReader(data), opts)
			pooled, leaked, perr := foldPooled(data, opts)
			if leaked != 0 {
				t.Fatalf("opts[%d]: pooled fold leaked %d arena buffers", i, leaked)
			}
			if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
				t.Fatalf("opts[%d]: unpooled fold returned %v, pooled %v", i, err, perr)
			}
			if err != nil {
				continue // rejecting input is always acceptable; panicking is not
			}
			if err := g1.Validate(); err != nil {
				t.Fatalf("opts[%d]: accepted input built an invalid sequence: %v", i, err)
			}
			sameSnapshots(t, pooled, g1.Snapshots, "pooled vs unpooled")
			g2, err := ReadSequence(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatalf("opts[%d]: second fold of accepted input errored: %v", i, err)
			}
			if g1.T() != g2.T() {
				t.Fatalf("opts[%d]: nondeterministic window count: %d vs %d", i, g1.T(), g2.T())
			}
			for tt := 0; tt < g1.T(); tt++ {
				a, b := g1.At(tt), g2.At(tt)
				if a.NumEdges() != b.NumEdges() {
					t.Fatalf("opts[%d]: window %d folded %d vs %d edges", i, tt, a.NumEdges(), b.NumEdges())
				}
				for u := 0; u < a.N; u++ {
					for _, v := range a.Out[u] {
						if !b.HasEdge(u, v) {
							t.Fatalf("opts[%d]: window %d edge %d->%d nondeterministic", i, tt, u, v)
						}
					}
				}
				if a.X != nil {
					for k := range a.X.Data {
						if a.X.Data[k] != b.X.Data[k] {
							t.Fatalf("opts[%d]: window %d attribute %d nondeterministic", i, tt, k)
						}
					}
				}
			}
		}
	})
}
