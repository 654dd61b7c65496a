//go:build !linux

package tensor

// releasePages is the fallback where the arena has no page release: every
// buffer stays resident on its free list, as if ReleaseFree never ran.
func releasePages([]float64) bool { return false }
