package platform

import (
	"io"
	iofs "io/fs"
	"os"
	"path"
	"sync"
	"syscall"
	"time"

	"sybiltd/internal/wal"
)

// memFS is an in-memory wal.FS for tests that open a log many times, such
// as FuzzDurableRecovery: a file is a byte slice shared by its open
// handles, Sync does nothing, and nothing crashes. MkdirAll records a
// directory and its parents, which OpenFile then opens as a memDir, for
// Sync alone; file names imply nothing.
type memFS struct {
	mu    sync.Mutex
	files map[string]*[]byte
	dirs  map[string]bool
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*[]byte), dirs: make(map[string]bool)} }

// clone copies every file and directory: the disk as it stands.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := newMemFS()
	for name, data := range m.files {
		b := append([]byte(nil), *data...)
		c.files[name] = &b
	}
	for name := range m.dirs {
		c.dirs[name] = true
	}
	return c
}

func notExist(op, name string) error {
	return &iofs.PathError{Op: op, Path: name, Err: iofs.ErrNotExist}
}

func (m *memFS) OpenFile(name string, flag int, _ iofs.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[path.Clean(name)] {
		return memDir{}, nil
	}
	data, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		data = new([]byte)
		m.files[name] = data
	}
	if flag&os.O_TRUNC != 0 {
		*data = (*data)[:0]
	}
	return &memFile{fs: m, data: data}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	m.files[newpath] = data
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (iofs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, notExist("stat", name)
	}
	return memInfo{name: path.Base(name), size: int64(len(*data))}, nil
}

func (m *memFS) MkdirAll(dir string, _ iofs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir = path.Clean(dir); dir != "." && dir != "/" && !m.dirs[dir]; dir = path.Dir(dir) {
		m.dirs[dir] = true
	}
	return nil
}

// memFile is one open handle: a shared byte slice and its own offset.
type memFile struct {
	fs   *memFS
	data *[]byte
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= int64(len(*f.data)) {
		return 0, io.EOF
	}
	n := copy(p, (*f.data)[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if end := f.off + int64(len(p)); end > int64(len(*f.data)) {
		*f.data = append(*f.data, make([]byte, end-int64(len(*f.data)))...)
	}
	n := copy((*f.data)[f.off:], p)
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(*f.data))
	}
	if offset < 0 {
		return 0, &iofs.PathError{Op: "seek", Err: iofs.ErrInvalid}
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(*f.data)) {
		*f.data = (*f.data)[:size]
	} else {
		*f.data = append(*f.data, make([]byte, size-int64(len(*f.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memDir is an open memFS directory: it syncs and closes, and refuses to
// be read, written or truncated.
type memDir struct{}

func errIsDir(op string) error { return &iofs.PathError{Op: op, Err: syscall.EISDIR} }

func (memDir) Read([]byte) (int, error)       { return 0, errIsDir("read") }
func (memDir) Write([]byte) (int, error)      { return 0, errIsDir("write") }
func (memDir) Seek(int64, int) (int64, error) { return 0, errIsDir("seek") }
func (memDir) Truncate(int64) error           { return errIsDir("truncate") }
func (memDir) Sync() error                    { return nil }
func (memDir) Close() error                   { return nil }

// memInfo is the iofs.FileInfo of a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string        { return i.name }
func (i memInfo) Size() int64         { return i.size }
func (i memInfo) Mode() iofs.FileMode { return 0o644 }
func (i memInfo) ModTime() time.Time  { return time.Time{} }
func (i memInfo) IsDir() bool         { return false }
func (i memInfo) Sys() any            { return nil }
