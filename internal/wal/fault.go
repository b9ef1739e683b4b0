package wal

import (
	"errors"
	iofs "io/fs"
	"sync"
)

// ErrInjectedCrash is the error every operation returns once a FaultFS
// has crashed: the simulated machine is dead, so nothing succeeds until
// the test "reboots" by reopening the directory with a healthy FS.
var ErrInjectedCrash = errors.New("wal: injected crash")

// FaultFS wraps another FS and injects failures for recovery testing:
//
//   - CrashAfterBytes(n): the next n written bytes succeed, then the
//     write in flight is cut short (a torn frame on disk, exactly what a
//     power cut mid-write leaves) and every subsequent operation fails.
//   - ShortWriteOnce(n): one write persists only its first n bytes and
//     reports an error, but the filesystem stays alive — the transient-
//     error path, where the Writer's truncate-repair must run.
//   - FailSync: sticky error injection on fsync.
//
// It is safe for concurrent use; the byte budget is global across all
// files opened through it (the WAL is the only file written during
// appends, which is what the crash tests exercise).
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	budget     int64 // remaining writable bytes; -1 = unlimited
	crashed    bool
	shortWrite int // next write keeps only this many bytes; -1 = off
	syncErr    error
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, budget: -1, shortWrite: -1}
}

// CrashAfterBytes arms the crash: n more bytes may be written, then the
// filesystem dies mid-write.
func (f *FaultFS) CrashAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
	f.crashed = false
}

// ShortWriteOnce makes the next write persist only its first n bytes and
// return an error, without crashing the filesystem.
func (f *FaultFS) ShortWriteOnce(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortWrite = n
}

// FailSync makes Sync return err until cleared with FailSync(nil).
func (f *FaultFS) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// Crashed reports whether the armed crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	f.mu.Lock()
	dead := f.crashed
	f.mu.Unlock()
	if dead {
		return nil, ErrInjectedCrash
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.Crashed() {
		return ErrInjectedCrash
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if f.Crashed() {
		return ErrInjectedCrash
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (iofs.FileInfo, error) {
	if f.Crashed() {
		return nil, ErrInjectedCrash
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	if f.Crashed() {
		return ErrInjectedCrash
	}
	return f.inner.MkdirAll(path, perm)
}

// faultFile routes a file's operations through the parent's fault state.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if ff.fs.crashed {
		ff.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	if n := ff.fs.shortWrite; n >= 0 && n < len(p) {
		ff.fs.shortWrite = -1
		ff.fs.mu.Unlock()
		written, _ := ff.f.Write(p[:n])
		return written, errors.New("wal: injected short write")
	}
	ff.fs.shortWrite = -1
	if ff.fs.budget >= 0 && int64(len(p)) > ff.fs.budget {
		keep := ff.fs.budget
		ff.fs.crashed = true
		ff.fs.mu.Unlock()
		written, _ := ff.f.Write(p[:keep])
		return written, ErrInjectedCrash
	}
	ff.fs.mu.Unlock()
	written, err := ff.f.Write(p)
	ff.fs.mu.Lock()
	if ff.fs.budget >= 0 {
		ff.fs.budget -= int64(written)
	}
	ff.fs.mu.Unlock()
	return written, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	dead, serr := ff.fs.crashed, ff.fs.syncErr
	ff.fs.mu.Unlock()
	if dead {
		return ErrInjectedCrash
	}
	if serr != nil {
		return serr
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if ff.fs.Crashed() {
		return ErrInjectedCrash
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if ff.fs.Crashed() {
		return 0, ErrInjectedCrash
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.fs.Crashed() {
		return 0, ErrInjectedCrash
	}
	return ff.f.Seek(offset, whence)
}

// Close always reaches the real file: even a crashed test must not leak
// file descriptors.
func (ff *faultFile) Close() error { return ff.f.Close() }
