package tensor

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
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
// Each size bucket is sharded: GOMAXPROCS-many free lists (capped at
// maxPoolShards) each behind their own mutex, plus one shared overflow
// list per bucket. A caller picks a shard with a cheap per-thread random
// hint, so concurrent generation requests almost never contend on the
// same lock. A Get that misses its home shard scans
// the other shards with try-locks (a "steal"), then the overflow list,
// and only then allocates. A Put lands on the caller's home shard until
// that shard reaches its byte budget, after which the buffer spills to
// the overflow list or, past the bucket-wide budget, is dropped for the
// GC to reclaim.
//
// Ownership discipline:
//
//   - Get returns a zeroed matrix whose buffer may be recycled. The caller
//     owns it until it either escapes into a long-lived structure (never
//     Put — the GC reclaims it as usual) or is explicitly returned with Put.
//   - Put transfers ownership of the buffer to the arena: it must be
//     called at most once per matrix, only by the buffer's sole owner, and
//     neither the matrix nor any view sharing its buffer may be used
//     afterwards. Buffers with non-bucket capacities (views, odd-size
//     allocations) are dropped rather than pooled, but that is a
//     memory-behaviour detail, not a licence to Put shared data.
//   - Tape-recorded operations allocate their outputs from the pool and
//     Tape.Reset returns them, so callers of the autodiff layer never Put
//     manually; they only avoid holding node values across a Reset.

const (
	minBucketBits = 6  // smallest pooled buffer: 64 floats (512 B)
	maxBucketBits = 24 // largest pooled buffer: 16Mi floats (128 MB)
	numBuckets    = maxBucketBits - minBucketBits + 1

	// maxBucketBytes bounds the memory one bucket retains so a burst of
	// huge intermediates cannot pin unbounded memory. Half the budget is
	// split evenly across the shards, half goes to the overflow list.
	maxBucketBytes = 1 << 25 // 32 MB per bucket

	// maxPoolShards caps the shard count: past ~16 ways the locks stop
	// being the bottleneck and the extra lists only fragment the pool.
	maxPoolShards = 16
)

// poolShards is fixed at init from GOMAXPROCS; shard ids index both the
// per-bucket free lists and the per-shard counters.
var poolShards = func() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxPoolShards {
		n = maxPoolShards
	}
	return n
}()

// maxShardBytes is one shard's retained-byte budget within a bucket.
var maxShardBytes = maxBucketBytes / 2 / poolShards

type freeList struct {
	mu   sync.Mutex
	free [][]float64
	_    [5]uint64 // keep neighbouring shard locks off one cache line
}

// pop removes and returns the most recently freed buffer, or nil when the
// list is empty. With try set it gives up instead of blocking on the lock
// (the steal path must never serialize behind a busy shard).
func (l *freeList) pop(try bool) []float64 {
	if try {
		if !l.mu.TryLock() {
			return nil
		}
	} else {
		l.mu.Lock()
	}
	var data []float64
	if k := len(l.free); k > 0 {
		data = l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
	}
	l.mu.Unlock()
	return data
}

// push appends buf if the list stays within budget bytes; reports whether
// the buffer was retained.
func (l *freeList) push(buf []float64, budget int) bool {
	l.mu.Lock()
	ok := (len(l.free)+1)*cap(buf)*8 <= budget
	if ok {
		l.free = append(l.free, buf)
	}
	l.mu.Unlock()
	return ok
}

type bucketPool struct {
	shards   []freeList // len poolShards
	overflow freeList
}

// shardCounters accumulate per-shard arena traffic. They are keyed by the
// caller's shard hint, not by where a buffer physically came from, so the
// numbers describe contention domains: a hot shard means many goroutines
// hash there, a high steal count means Puts and Gets land on different
// shards (e.g. producer/consumer pipelines).
type shardCounters struct {
	gets, hits, frees, steals atomic.Int64
	_                         [4]uint64 // pad to a cache line
}

var (
	arena      [numBuckets]bucketPool
	shardStats []shardCounters

	// poolLive tracks bytes of bucketed buffers currently checked out
	// (Get minus Put); poolPeakLive is its high-water mark. Buffers that
	// escape into long-lived structures stay counted until Put, so the
	// pair describes arena pressure, not process RSS.
	poolLive     atomic.Int64
	poolPeakLive atomic.Int64
)

func init() {
	for i := range arena {
		arena[i].shards = make([]freeList, poolShards)
	}
	shardStats = make([]shardCounters, poolShards)
}

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

// shardHint picks the caller's home shard. rand/v2's global generator is
// backed by per-thread runtime state, so this is a few nanoseconds, scales
// with cores, and — unlike a shared atomic counter — adds no contention of
// its own. The choice never affects results, only which lock is taken.
func shardHint() int {
	if poolShards == 1 {
		return 0
	}
	return int(rand.Uint32N(uint32(poolShards)))
}

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
// a shard free list, the header from here. Put detaches the buffer before
// recycling the header, so a stale reference to a Put matrix can never
// reach a recycled buffer through it.
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
	bp := &arena[idx]
	h := shardHint()
	sc := &shardStats[h]
	sc.gets.Add(1)
	trackPoolLive(8 << (idx + minBucketBits))

	data := bp.shards[h].pop(false)
	if data == nil && poolShards > 1 {
		for i := 1; i < poolShards; i++ {
			if data = bp.shards[(h+i)%poolShards].pop(true); data != nil {
				sc.steals.Add(1)
				break
			}
		}
	}
	if data == nil {
		data = bp.overflow.pop(false)
	}
	if data == nil {
		data = alignedAlloc(1 << (idx + minBucketBits))
	} else {
		sc.hits.Add(1)
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
	bp := &arena[b-minBucketBits]
	h := shardHint()
	shardStats[h].frees.Add(1)
	trackPoolLive(-int64(c) * 8)
	buf := m.Data[:c]
	// Recycle the header only on the pooled path: double-Putting a pooled
	// buffer is already fatal (the free list would hand it out twice), so
	// header reuse adds no new hazard there, while the early returns above
	// keep today's forgiving behaviour for views and odd-size matrices.
	m.Rows, m.Cols, m.Data = 0, 0, nil
	matrixHeaders.Put(m)
	if bp.shards[h].push(buf, maxShardBytes) {
		return
	}
	bp.overflow.push(buf, maxBucketBytes/2)
}

// PoolStats is a snapshot of the arena counters; exposed so serving-layer
// metrics can report buffer-reuse health alongside runtime.MemStats.
type PoolStats struct {
	Gets          int64 // pool allocations requested since process start
	Hits          int64 // requests served by recycling a buffer
	Puts          int64 // buffers returned
	Steals        int64 // hits served by a shard other than the caller's
	RetainedBytes int64 // bytes currently held on free lists
	LiveBytes     int64 // bytes of bucketed buffers currently checked out
	PeakLiveBytes int64 // high-water mark of LiveBytes (ResetPoolPeakLive rewinds)
}

// ReadPoolStats returns current arena counters, summed over the shards.
func ReadPoolStats() PoolStats {
	s := PoolStats{
		LiveBytes:     poolLive.Load(),
		PeakLiveBytes: poolPeakLive.Load(),
	}
	for h := range shardStats {
		sc := &shardStats[h]
		s.Gets += sc.gets.Load()
		s.Hits += sc.hits.Load()
		s.Puts += sc.frees.Load()
		s.Steals += sc.steals.Load()
	}
	for i := range arena {
		bp := &arena[i]
		bufBytes := int64(8 << (i + minBucketBits))
		for h := range bp.shards {
			l := &bp.shards[h]
			l.mu.Lock()
			s.RetainedBytes += int64(len(l.free)) * bufBytes
			l.mu.Unlock()
		}
		bp.overflow.mu.Lock()
		s.RetainedBytes += int64(len(bp.overflow.free)) * bufBytes
		bp.overflow.mu.Unlock()
	}
	return s
}
