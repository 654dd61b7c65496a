package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the pooled matrix arena: a process-wide,
// size-bucketed free list of float64 buffers that the tape, the tape-free
// forward passes, and the sparse kernels draw their scratch and output
// matrices from. Training steps and generation requests churn through
// thousands of short-lived matrices with a small set of recurring shapes;
// recycling the backing slices removes that load from the garbage
// collector entirely once the pool is warm.
//
// Each size bucket is one mutex-guarded free list. A Get pops the most
// recently freed buffer or, on an empty list, allocates; a Put pushes
// until the bucket holds maxBucketBytes, after which the buffer is dropped
// for the GC to reclaim. The critical sections are a slice pop or push,
// so the lock is held for nanoseconds; BenchmarkArenaGetPut times the
// round trip alone and with every core contending for one bucket.
//
// Ownership discipline:
//
//   - Get returns a zeroed matrix whose buffer may be recycled. The caller
//     owns it until it either escapes into a long-lived structure (never
//     Put — the GC reclaims it as usual) or is explicitly returned with Put.
//   - Put transfers ownership of the buffer to the arena: it must be
//     called at most once per matrix, only by the buffer's sole owner, and
//     neither the matrix nor any view sharing its buffer may be used
//     afterwards. Put only what Get returned. Put pools any buffer whose
//     capacity is a bucket size, so a New matrix of bucket size would be
//     pooled too and skew the live-byte count; only non-bucket capacities
//     (views, odd-size allocations) are dropped, and that is a
//     memory-behaviour detail, not a licence to Put shared data.
//   - Tape-recorded operations allocate their outputs from the pool and
//     Tape.Reset returns them, so callers of the autodiff layer never Put
//     manually; they only avoid holding node values across a Reset.

const (
	minBucketBits = 6  // smallest pooled buffer: 64 floats (512 B)
	maxBucketBits = 24 // largest pooled buffer: 16Mi floats (128 MB)
	numBuckets    = maxBucketBits - minBucketBits + 1

	// maxBucketBytes bounds the memory one bucket retains so a burst of
	// huge intermediates cannot pin unbounded memory.
	maxBucketBytes = 1 << 25 // 32 MB per bucket
)

// bucketPool is one bucket's free list. Its traffic counters are plain
// ints under the same lock rather than package-level atomics: Get and Put
// take the lock anyway, and counters beside it measured faster in
// BenchmarkArenaGetPut, most of all under contention, than three shared
// atomics that every core writes.
type bucketPool struct {
	mu               sync.Mutex
	free             [][]float64
	gets, hits, puts int64
}

var (
	arena [numBuckets]bucketPool

	// poolLive tracks bytes of bucketed buffers currently checked out
	// (Get minus Put); poolPeakLive is its high-water mark. Buffers that
	// escape into long-lived structures stay counted until Put, so the
	// pair describes arena pressure, not process RSS.
	poolLive     atomic.Int64
	poolPeakLive atomic.Int64
)

// trackPoolLive adjusts the checked-out byte count and, for positive
// deltas, advances the high-water mark.
func trackPoolLive(delta int64) {
	v := poolLive.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		p := poolPeakLive.Load()
		if v <= p || poolPeakLive.CompareAndSwap(p, v) {
			return
		}
	}
}

// ResetPoolPeakLive rewinds the arena's live-byte high-water mark to the
// current level (benchmark phase boundaries).
func ResetPoolPeakLive() { poolPeakLive.Store(poolLive.Load()) }

// cacheLineFloats is the allocation alignment in float64s: 64 bytes, one
// cache line. Go only guarantees 8-byte alignment
// for float64 slices; the arena over-allocates by one line and slides the
// base so every pooled buffer starts on a line boundary. SIMD kernels
// then never split a vector load across lines, and two matrices never
// false-share a line. The aligned 3-index reslice keeps cap at the exact
// bucket size, so Put's power-of-two check and the byte accounting are
// untouched (the hidden prefix is retained by the slice's backing array).
const cacheLineFloats = 8

// alignedAlloc returns a zeroed n-float slice (n a bucket size) whose
// base address is 64-byte aligned and whose cap is exactly n.
func alignedAlloc(n int) []float64 {
	raw := make([]float64, n+cacheLineFloats-1)
	off := 0
	if r := uintptr(unsafe.Pointer(&raw[0])) & 63; r != 0 {
		off = int((64 - r) / 8)
	}
	return raw[off : off+n : off+n]
}

// matrixHeaders recycles Matrix structs alongside the buffer arena so a
// warm Get/Put cycle performs no allocation at all: the buffer comes from
// a bucket's free list, the header from here. Put detaches the buffer
// before recycling the header, so a stale reference to a Put matrix can
// never reach a recycled buffer through it.
var matrixHeaders = sync.Pool{New: func() any { return new(Matrix) }}

// bucketIndex returns the arena bucket for a buffer of n floats, or -1
// when n is zero or exceeds the largest bucket.
func bucketIndex(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minBucketBits {
		b = minBucketBits
	}
	if b > maxBucketBits {
		return -1
	}
	return b - minBucketBits
}

// Get returns a zeroed rows×cols matrix backed by a pooled buffer. Shapes
// too large for the arena fall back to a plain allocation.
func Get(rows, cols int) *Matrix {
	n := rows * cols
	idx := bucketIndex(n)
	if idx < 0 {
		return New(rows, cols)
	}
	trackPoolLive(8 << (idx + minBucketBits))

	bp := &arena[idx]
	var data []float64
	bp.mu.Lock()
	bp.gets++
	if k := len(bp.free); k > 0 {
		bp.hits++
		data = bp.free[k-1]
		bp.free[k-1] = nil
		bp.free = bp.free[:k-1]
	}
	bp.mu.Unlock()

	if data == nil {
		data = alignedAlloc(1 << (idx + minBucketBits))
	} else {
		data = data[:n]
		for i := range data {
			data[i] = 0
		}
	}
	m := matrixHeaders.Get().(*Matrix)
	m.Rows, m.Cols, m.Data = rows, cols, data[:n]
	return m
}

// Put returns m's buffer to the arena. The caller relinquishes the buffer:
// neither m nor any view sharing its backing slice may be used afterwards.
// Matrices whose backing capacity is not a bucket size (sub-matrix views,
// odd-size allocations) are dropped rather than pooled.
func Put(m *Matrix) {
	if m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	b := bits.TrailingZeros(uint(c))
	if b < minBucketBits || b > maxBucketBits {
		return
	}
	trackPoolLive(-int64(c) * 8)
	buf := m.Data[:c]
	// Recycle the header only on the pooled path: double-Putting a pooled
	// buffer is already fatal (the free list would hand it out twice), so
	// header reuse adds no new hazard there, while the early returns above
	// keep today's forgiving behaviour for views and odd-size matrices.
	m.Rows, m.Cols, m.Data = 0, 0, nil
	matrixHeaders.Put(m)

	bp := &arena[b-minBucketBits]
	bp.mu.Lock()
	bp.puts++
	if (len(bp.free)+1)*c*8 <= maxBucketBytes {
		bp.free = append(bp.free, buf)
	}
	bp.mu.Unlock()
}

// PoolStats is a snapshot of the arena counters; exposed so serving-layer
// metrics can report buffer-reuse health alongside runtime.MemStats.
type PoolStats struct {
	Gets          int64 // pool allocations requested since process start
	Hits          int64 // requests served by recycling a buffer
	Puts          int64 // buffers returned
	RetainedBytes int64 // bytes currently held on free lists
	LiveBytes     int64 // bytes of bucketed buffers currently checked out
	PeakLiveBytes int64 // high-water mark of LiveBytes (ResetPoolPeakLive rewinds)
}

// ReadPoolStats returns current arena counters.
func ReadPoolStats() PoolStats {
	s := PoolStats{
		LiveBytes:     poolLive.Load(),
		PeakLiveBytes: poolPeakLive.Load(),
	}
	for i := range arena {
		bp := &arena[i]
		bp.mu.Lock()
		s.Gets += bp.gets
		s.Hits += bp.hits
		s.Puts += bp.puts
		s.RetainedBytes += int64(len(bp.free)) * int64(8<<(i+minBucketBits))
		bp.mu.Unlock()
	}
	return s
}
