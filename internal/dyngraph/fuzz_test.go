package dyngraph

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"testing"
)

// fuzzMaxWords is the allocation a fuzzed header may ask for: far below
// Load's own bound, so one input cannot exhaust the test process.
const fuzzMaxWords = 1 << 20

// declaredWords reads the meta line the way Load does and returns the
// words its header would allocate (see maxSequenceWords), or 0 when there
// is no well-formed header with positive dimensions.
func declaredWords(data []byte) int {
	rr, err := DecompressAuto(bytes.NewReader(data))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(rr)
	sc.Buffer(nil, 1024*1024)
	if !sc.Scan() || !sc.Scan() {
		return 0
	}
	var n, f, t int
	if _, err := fmt.Sscanf(sc.Text(), "meta %d %d %d", &n, &f, &t); err != nil || n <= 0 || f < 0 || t <= 0 {
		return 0
	}
	if f > math.MaxInt/n/t-6 {
		return math.MaxInt
	}
	return n * t * (f + 6)
}

// FuzzLoadSequence holds Load to its contract on arbitrary bytes: it
// returns an error, or a sequence that passes Validate and that Save
// writes back to bytes Load reads to the same sequence. It never panics.
// testdata/fuzz/FuzzLoadSequence holds the seeds: a Save output, and the
// negative headers and out-of-range edges Load once accepted or panicked
// on.
func FuzzLoadSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredWords(data) > fuzzMaxWords {
			t.Skip("header declares more than a test process should allocate")
		}
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Load accepted a sequence that fails Validate: %v", err)
		}
		var saved, resaved bytes.Buffer
		if err := Save(&saved, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("Load rejected Save's output of a sequence it accepted: %v", err)
		}
		if err := Save(&resaved, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("Save→Load→Save changed the bytes:\n%q\n%q", saved.Bytes(), resaved.Bytes())
		}
	})
}
