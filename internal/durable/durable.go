// Package durable is the fsync-disciplined persistence substrate under
// the serving layer's forecast sessions. It provides exactly three
// primitives, each with an explicit crash contract:
//
//   - FS, a minimal filesystem interface. Production code uses OS; tests
//     inject FaultFS to fail the Nth write, tear the final record, or
//     simulate a full disk, which is how the crash-recovery matrix drives
//     every failure point without ever killing a process.
//   - WriteFileAtomic, the snapshot primitive: write to a temp file, fsync
//     it, rename over the target, fsync the directory. A reader never
//     observes a half-written file — after a crash the target is either
//     the old bytes or the new bytes, entire.
//   - WAL, a CRC32C-framed append-only log with per-session generation
//     numbers and monotonic sequence numbers. Append returns only after
//     fsync, so an acknowledged record survives any crash; replay walks
//     frames until the first invalid one and truncates the torn tail, so
//     a crash mid-append costs exactly the unacknowledged record.
//
// The contract the layers above build on: state = snapshot + WAL tail.
// A consumer snapshots its full state with WriteFileAtomic recording the
// WAL position (generation, sequence), rotates the log to a fresh
// generation, and deletes old generations; recovery loads the snapshot and
// replays every frame past its sequence. Both halves are idempotent, so
// recovery itself may crash and be retried.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the package needs. Sync must not return
// until the file's data is on stable storage.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts the filesystem operations of the durability layer so tests
// can inject failures (see FaultFS). All paths are interpreted as by
// package os.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// SyncDir fsyncs a directory so a preceding create/rename/remove in it is
// durable. Required after every rename that commits a snapshot: without
// it, a crash can surface the old directory entry even though the new
// file's data reached the platter.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("durable: open dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("durable: fsync dir %s: %w", dir, serr)
	}
	return cerr
}

// WriteFileAtomic durably replaces path with data: the bytes are written
// to path.tmp, fsynced, renamed over path, and the parent directory is
// fsynced. After a crash at any point, path holds either its previous
// contents or data — never a prefix. A stale .tmp left by a crash is
// overwritten by the next call and ignored by readers.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp) // best effort; a leftover tmp is harmless
		return fmt.Errorf("durable: write %s: %w", tmp, werr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	return SyncDir(fsys, filepath.Dir(path))
}

// ReadFile reads a whole file through an FS.
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
