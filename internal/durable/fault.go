package durable

import (
	"errors"
	"os"
	"sync"
)

// ErrInjected is the default error a FaultFS returns once its fault
// triggers. Callers distinguishing "disk full" behavior can inject
// syscall.ENOSPC instead via Fault.Err.
var ErrInjected = errors.New("durable: injected fault")

// Fault configures a FaultFS. The zero value injects nothing.
type Fault struct {
	// WriteBudget, when >= 0, is the total number of bytes Write calls may
	// persist before failing; a write that would exceed the budget fails.
	// If Torn is set, such a write first persists the remaining budget —
	// a torn final record, exactly what a crash mid-write leaves behind.
	// Negative means unlimited.
	WriteBudget int64
	// FailWrites, when > 0, fails the Nth and every later Write call
	// (1 fails the first write). Applied after the byte budget.
	FailWrites int64
	// FailSyncs, when > 0, fails the Nth and every later Sync call.
	FailSyncs int64
	// FailRenames, when > 0, fails the Nth and every later Rename.
	FailRenames int64
	// Err is the error injected when a fault triggers; ErrInjected if nil.
	Err error
	// Torn makes a budget-exceeded write persist its partial prefix.
	Torn bool
}

// FaultFS wraps an FS and injects failures per its Fault. It is safe for
// concurrent use; the counters are shared across all files it opens, so a
// byte budget models one disk running dry under the whole process.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	fault   Fault
	written int64 // bytes persisted so far
	writes  int64 // Write calls seen so far
	syncs   int64 // Sync calls seen so far
	renames int64 // Rename calls seen so far
	tripped bool  // a fault has triggered
}

// NewFaultFS wraps inner with fault injection. WriteBudget < 0 means
// unlimited.
func NewFaultFS(inner FS, f Fault) *FaultFS {
	if f.Err == nil {
		f.Err = ErrInjected
	}
	return &FaultFS{inner: inner, fault: f}
}

// SetFault swaps the fault configuration and resets the trigger
// counters, so a test can run a healthy phase and then flip the disk
// into a failure mode mid-flight ("the disk just filled up").
func (ffs *FaultFS) SetFault(f Fault) {
	if f.Err == nil {
		f.Err = ErrInjected
	}
	ffs.mu.Lock()
	ffs.fault = f
	ffs.written, ffs.writes, ffs.syncs, ffs.renames = 0, 0, 0, 0
	ffs.tripped = false
	ffs.mu.Unlock()
}

// admitWrite decides the fate of a Write of n bytes: allow up to that many
// bytes through (possibly fewer when Torn), or fail outright.
func (ffs *FaultFS) admitWrite(n int) (allow int, err error) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.writes++
	if ffs.fault.WriteBudget >= 0 {
		remaining := ffs.fault.WriteBudget - ffs.written
		if remaining < int64(n) {
			ffs.tripped = true
			if ffs.fault.Torn && remaining > 0 {
				ffs.written += remaining
				return int(remaining), ffs.fault.Err
			}
			return 0, ffs.fault.Err
		}
	}
	if ffs.fault.FailWrites > 0 && ffs.writes >= ffs.fault.FailWrites {
		ffs.tripped = true
		return 0, ffs.fault.Err
	}
	ffs.written += int64(n)
	return n, nil
}

func (ffs *FaultFS) admitSync() error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.syncs++
	if ffs.fault.FailSyncs > 0 && ffs.syncs >= ffs.fault.FailSyncs {
		ffs.tripped = true
		return ffs.fault.Err
	}
	return nil
}

func (ffs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := ffs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: ffs, f: f}, nil
}

func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	ffs.mu.Lock()
	ffs.renames++
	fail := ffs.fault.FailRenames > 0 && ffs.renames >= ffs.fault.FailRenames
	if fail {
		ffs.tripped = true
	}
	err := ffs.fault.Err
	ffs.mu.Unlock()
	if fail {
		return err
	}
	return ffs.inner.Rename(oldpath, newpath)
}

func (ffs *FaultFS) Remove(name string) error    { return ffs.inner.Remove(name) }
func (ffs *FaultFS) RemoveAll(path string) error { return ffs.inner.RemoveAll(path) }
func (ffs *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return ffs.inner.MkdirAll(path, perm)
}
func (ffs *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return ffs.inner.ReadDir(name) }
func (ffs *FaultFS) Stat(name string) (os.FileInfo, error)      { return ffs.inner.Stat(name) }
func (ffs *FaultFS) Truncate(name string, size int64) error     { return ffs.inner.Truncate(name, size) }

type faultFile struct {
	fs *FaultFS
	f  File
}

func (f *faultFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *faultFile) Write(p []byte) (int, error) {
	allow, ierr := f.fs.admitWrite(len(p))
	if allow > 0 {
		n, werr := f.f.Write(p[:allow])
		if werr != nil {
			return n, werr
		}
		if ierr != nil { // torn write: prefix persisted, call still fails
			return n, ierr
		}
		return n, nil
	}
	if ierr != nil {
		return 0, ierr
	}
	return f.f.Write(p[:0])
}

func (f *faultFile) Sync() error {
	if err := f.fs.admitSync(); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error { return f.f.Close() }
