package durable

// Tripped reports whether any configured fault has triggered yet.
func (ffs *FaultFS) Tripped() bool {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.tripped
}
