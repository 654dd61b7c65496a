package tensor

import (
	"syscall"
	"unsafe"
)

var pageSize = uintptr(syscall.Getpagesize())

// releasePages hands the whole OS pages strictly inside buf back to the
// kernel (MADV_DONTNEED): the buffer keeps its address, and its next touch
// faults in zero-filled pages. It reports false only when the kernel
// refuses, and the buffer then simply stays resident; a buffer holding no
// whole page has nothing to release and reports true. The span is built
// with unsafe.Add and unsafe.Slice, never by a uintptr round trip.
func releasePages(buf []float64) bool {
	base := unsafe.Pointer(unsafe.SliceData(buf))
	start := uintptr(base)
	lo := (start + pageSize - 1) &^ (pageSize - 1)
	hi := (start + uintptr(len(buf))*8) &^ (pageSize - 1)
	if hi <= lo {
		return true
	}
	span := unsafe.Slice((*byte)(unsafe.Add(base, lo-start)), hi-lo)
	return syscall.Madvise(span, syscall.MADV_DONTNEED) == nil
}
