package dyngraph

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is line-based and self-describing:
//
//	vrdag-graph 1
//	meta <N> <F> <T>
//	e <t> <src> <dst>
//	x <t> <node> <v1> <v2> ... <vF>
//
// Edge and attribute lines may appear in any order. Attribute lines are
// optional; omitted rows stay zero.

// DecompressAuto wraps r so gzip-compressed input is transparently
// decompressed: the stream is sniffed for the two-byte gzip magic and
// passed through untouched when it is plain text. It is the single
// compression path shared by the sequence loader and the ingest
// edge-stream reader, so every text format the repository reads accepts
// a .gz variant for free.
func DecompressAuto(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// Too short to be gzip (or unreadable); let the downstream parser
		// produce its own diagnostic on the raw bytes.
		return br, nil
	}
	if magic[0] != 0x1f || magic[1] != 0x8b {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("dyngraph: bad gzip stream: %w", err)
	}
	return zr, nil
}

// SaveGzip writes the sequence in the vrdag-graph text format,
// gzip-compressed. Load reads the result back directly thanks to
// DecompressAuto sniffing.
func SaveGzip(w io.Writer, g *Sequence) error {
	zw := gzip.NewWriter(w)
	if err := Save(zw, g); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// Save writes the sequence in the vrdag-graph text format.
func Save(w io.Writer, g *Sequence) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "vrdag-graph 1\nmeta %d %d %d\n", g.N, g.F, g.T()); err != nil {
		return err
	}
	for t, s := range g.Snapshots {
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				if _, err := fmt.Fprintf(bw, "e %d %d %d\n", t, u, v); err != nil {
					return err
				}
			}
		}
		if s.X != nil {
			for i := 0; i < s.N; i++ {
				row := s.X.Row(i)
				var sb strings.Builder
				fmt.Fprintf(&sb, "x %d %d", t, i)
				for _, v := range row {
					fmt.Fprintf(&sb, " %g", v)
				}
				sb.WriteByte('\n')
				if _, err := bw.WriteString(sb.String()); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Load parses a sequence from the vrdag-graph text format, plain or
// gzip-compressed (sniffed via DecompressAuto). It applies UnmarshalJSON's
// rules: a negative or oversized header and an edge endpoint outside
// [0, N) are line-numbered errors.
func Load(r io.Reader) (*Sequence, error) {
	rr, err := DecompressAuto(r)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(rr)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("dyngraph: empty input")
	}
	if strings.TrimSpace(sc.Text()) != "vrdag-graph 1" {
		return nil, fmt.Errorf("dyngraph: bad magic line %q", sc.Text())
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("dyngraph: missing meta line")
	}
	var n, f, tt int
	if _, err := fmt.Sscanf(sc.Text(), "meta %d %d %d", &n, &f, &tt); err != nil {
		return nil, fmt.Errorf("dyngraph: bad meta line %q: %w", sc.Text(), err)
	}
	if err := checkDims(n, f, tt); err != nil {
		return nil, fmt.Errorf("dyngraph: line 2: %w", err)
	}
	g := NewSequence(n, f, tt)
	lineNo := 2
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("dyngraph: line %d: bad edge %q", lineNo, line)
			}
			t, err1 := strconv.Atoi(fields[1])
			u, err2 := strconv.Atoi(fields[2])
			v, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil || t < 0 || t >= tt {
				return nil, fmt.Errorf("dyngraph: line %d: bad edge %q", lineNo, line)
			}
			if err := checkEdge(n, u, v); err != nil {
				return nil, fmt.Errorf("dyngraph: line %d: %w", lineNo, err)
			}
			g.Snapshots[t].AddEdge(u, v)
		case "x":
			if f == 0 {
				return nil, fmt.Errorf("dyngraph: line %d: attribute row in unattributed graph", lineNo)
			}
			if len(fields) != 3+f {
				return nil, fmt.Errorf("dyngraph: line %d: expected %d attribute values", lineNo, f)
			}
			t, err1 := strconv.Atoi(fields[1])
			i, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || t < 0 || t >= tt || i < 0 || i >= n {
				return nil, fmt.Errorf("dyngraph: line %d: bad attribute row %q", lineNo, line)
			}
			row := g.Snapshots[t].X.Row(i)
			for j := 0; j < f; j++ {
				v, err := strconv.ParseFloat(fields[3+j], 64)
				if err != nil {
					return nil, fmt.Errorf("dyngraph: line %d: bad value %q", lineNo, fields[3+j])
				}
				row[j] = v
			}
		default:
			return nil, fmt.Errorf("dyngraph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	return g, sc.Err()
}
