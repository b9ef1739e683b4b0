package wal

import (
	"io"
	iofs "io/fs"
	"os"
)

// File is the slice of *os.File the log and snapshot paths need. Keeping
// it narrow is what makes fault injection tractable: every byte the
// durability layer persists moves through these seven methods.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem seam the durability layer writes through. The
// production implementation is OS(); tests wrap it in a FaultFS to
// inject write and sync failures and crash-at-byte-N truncation.
type FS interface {
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (iofs.FileInfo, error)
	MkdirAll(path string, perm iofs.FileMode) error
}

type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }

func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }
