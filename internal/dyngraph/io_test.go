package dyngraph

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

func ioTestSequence() *Sequence {
	g := NewSequence(5, 2, 3)
	g.At(0).AddEdge(0, 1)
	g.At(0).AddEdge(1, 2)
	g.At(1).AddEdge(2, 3)
	g.At(2).AddEdge(3, 4)
	g.At(2).AddEdge(4, 0)
	for t := 0; t < 3; t++ {
		for i := 0; i < 5; i++ {
			g.At(t).X.Set(i, 0, float64(t)+0.5*float64(i))
			g.At(t).X.Set(i, 1, -float64(i))
		}
	}
	return g
}

func sequencesEqual(t *testing.T, a, b *Sequence) {
	t.Helper()
	if a.N != b.N || a.F != b.F || a.T() != b.T() {
		t.Fatalf("shape mismatch: (%d,%d,%d) vs (%d,%d,%d)", a.N, a.F, a.T(), b.N, b.F, b.T())
	}
	for tt := 0; tt < a.T(); tt++ {
		sa, sb := a.At(tt), b.At(tt)
		if sa.NumEdges() != sb.NumEdges() {
			t.Fatalf("snapshot %d: %d vs %d edges", tt, sa.NumEdges(), sb.NumEdges())
		}
		for u := 0; u < a.N; u++ {
			for _, v := range sa.Out[u] {
				if !sb.HasEdge(u, v) {
					t.Fatalf("snapshot %d: edge %d->%d missing", tt, u, v)
				}
			}
		}
		if a.F > 0 {
			for i := range sa.X.Data {
				if sa.X.Data[i] != sb.X.Data[i] {
					t.Fatalf("snapshot %d: attribute %d differs", tt, i)
				}
			}
		}
	}
}

// TestSaveGzipLoadRoundTrip pins the shared compression path: a sequence
// written with SaveGzip loads back bit-identical through the plain Load
// entry point, with no caller-side decompression.
func TestSaveGzipLoadRoundTrip(t *testing.T) {
	g := ioTestSequence()
	var buf bytes.Buffer
	if err := SaveGzip(&buf, g); err != nil {
		t.Fatalf("SaveGzip: %v", err)
	}
	if b := buf.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("SaveGzip output is not gzip")
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load(gzip): %v", err)
	}
	sequencesEqual(t, g, got)
}

// TestLoadPlainStillWorks ensures the sniffing path passes uncompressed
// input through untouched.
func TestLoadPlainStillWorks(t *testing.T) {
	g := ioTestSequence()
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load(plain): %v", err)
	}
	sequencesEqual(t, g, got)
}

// TestDecompressAutoCorruptGzip verifies that a stream which carries the
// gzip magic but is not valid gzip produces an error instead of being fed
// to the text parser as garbage.
func TestDecompressAutoCorruptGzip(t *testing.T) {
	if _, err := DecompressAuto(bytes.NewReader([]byte{0x1f, 0x8b, 0x00})); err == nil {
		t.Fatal("expected an error for a corrupt gzip header")
	}
}

// TestDecompressAutoShortInput: inputs shorter than the magic fall through
// to the downstream parser rather than erroring in the sniffer.
func TestDecompressAutoShortInput(t *testing.T) {
	r, err := DecompressAuto(strings.NewReader("x"))
	if err != nil {
		t.Fatalf("DecompressAuto: %v", err)
	}
	b := make([]byte, 4)
	n, _ := r.Read(b)
	if n != 1 || b[0] != 'x' {
		t.Fatalf("short input mangled: n=%d b=%q", n, b[:n])
	}
}

// TestDecompressAutoConcatenatedMembers documents standard gzip semantics
// for the shared path: multi-member archives decompress end to end.
func TestDecompressAutoConcatenatedMembers(t *testing.T) {
	var buf bytes.Buffer
	for _, part := range []string{"hello ", "world"} {
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write([]byte(part)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := DecompressAuto(&buf)
	if err != nil {
		t.Fatalf("DecompressAuto: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.String() != "hello world" {
		t.Fatalf("got %q, want %q", out.String(), "hello world")
	}
}

// TestLoadRejectsBadHeadersAndEdges: a header with a negative or
// oversized dimension and an edge with an endpoint outside [0, N) are
// line-numbered errors, not a panic, a negative F, or a dropped edge.
func TestLoadRejectsBadHeadersAndEdges(t *testing.T) {
	cases := []struct{ name, in, line string }{
		{"negative N", "meta -1 0 1\n", "line 2:"},
		{"negative T", "meta 2 0 -1\n", "line 2:"},
		{"negative F", "meta 2 -3 1\n", "line 2:"},
		{"oversized", "meta 100000000000 0 1\n", "line 2:"},
		{"endpoint past N", "meta 2 0 1\ne 0 0 1\ne 0 5 7\n", "line 4:"},
		{"negative endpoint", "meta 2 0 1\ne 0 -1 1\n", "line 3:"},
	}
	for _, c := range cases {
		in := "vrdag-graph 1\n" + c.in
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load(%q) panicked: %v", in, r)
				}
			}()
			g, err := Load(strings.NewReader(in))
			if err == nil {
				t.Fatalf("Load(%q) accepted it: N=%d F=%d T=%d", in, g.N, g.F, g.T())
			}
			if !strings.Contains(err.Error(), c.line) {
				t.Fatalf("Load(%q) = %v, want an error at %s", in, err, c.line)
			}
		})
	}
}
