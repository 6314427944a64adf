package faults

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Clock is the time seam: production wiring uses WallClock, tests use a
// manual clock so injected latency and backoff sleeps cost no real time.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// WallClock is the real time.Now / time.Sleep clock.
type WallClock struct{}

func (WallClock) Now() time.Time        { return time.Now() }
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// File is the subset of *os.File the snapshot store and the WAL journal
// need (Seek: the replication stream reads a segment's tail, not the file).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem seam of the durable stores (snapshot store and WAL
// journal): enough surface to implement write-temp-fsync-rename
// persistence with rotation (WriteFileAtomic) plus append-mode segment files
// and directory scans.
type FS interface {
	Open(name string) (File, error)
	// OpenFile opens with explicit flags (os.O_CREATE|os.O_EXCL|os.O_RDWR
	// for fresh WAL segments).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making the entries created, renamed or
	// removed in it durable: a file's own fsync does not (fsync(2)).
	SyncDir(name string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err == nil {
		err = d.Sync()
		d.Close() // opened only to sync: the Sync error is the one that counts
	}
	return err
}

// WriteFileAtomic durably replaces path with data, the one way the durable
// stores write a whole file: a temp file in the same directory, write,
// fsync, close, then — when bak is not empty and path exists — a rotation
// of the current file to bak, the rename over path, and an fsync of the
// directory so the new entry survives a power loss, not only a process
// kill. A failed attempt removes its temp file and leaves path as it was
// (or, after a failed directory sync, replaced but perhaps not durably).
// A failed rotation is not fatal: the replace stays atomic and only the
// fallback goes stale, so it is reported apart, as rotateErr.
func WriteFileAtomic(fsys FS, path string, data []byte, bak string) (rotateErr, err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	if bak != "" {
		if _, serr := fsys.Stat(path); serr == nil {
			rotateErr = fsys.Rename(path, bak)
		}
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return rotateErr, err
	}
	return rotateErr, fsys.SyncDir(dir)
}

// FaultFS wraps an FS with an Injector. Each operation consults one site:
//
//	fs.open  fs.openfile  fs.createtemp  fs.rename  fs.remove  fs.stat
//	fs.readdir  fs.mkdirall  fs.syncdir  fs.read  fs.write  fs.sync  fs.close
//
// Write faults additionally support partial writes (a prefix lands, then
// an error) and silent corruption (one bit of the written data flips).
// Injected latency is served through the Clock, so manual-clock tests
// don't slow down.
type FaultFS struct {
	Inner FS
	Inj   *Injector
	Clock Clock // nil = WallClock
}

// NewFaultFS wraps inner with the injector's schedules.
func NewFaultFS(inner FS, inj *Injector, clock Clock) *FaultFS {
	if clock == nil {
		clock = WallClock{}
	}
	return &FaultFS{Inner: inner, Inj: inj, Clock: clock}
}

func (f *FaultFS) check(site string) error {
	lat, err := f.Inj.Check(site)
	if lat > 0 {
		f.Clock.Sleep(lat)
	}
	return err
}

func (f *FaultFS) Open(name string) (File, error) {
	if err := f.check("fs.open"); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.check("fs.openfile"); err != nil {
		return nil, &fs.PathError{Op: "openfile", Path: name, Err: err}
	}
	file, err := f.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.check("fs.createtemp"); err != nil {
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	file, err := f.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check("fs.rename"); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.check("fs.remove"); err != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: err}
	}
	return f.Inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.check("fs.stat"); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
	}
	return f.Inner.Stat(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.check("fs.readdir"); err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: err}
	}
	return f.Inner.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.check("fs.mkdirall"); err != nil {
		return &fs.PathError{Op: "mkdirall", Path: path, Err: err}
	}
	return f.Inner.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(name string) error {
	if err := f.check("fs.syncdir"); err != nil {
		return &fs.PathError{Op: "syncdir", Path: name, Err: err}
	}
	return f.Inner.SyncDir(name)
}

// faultFile threads per-call faults through reads, writes, syncs, closes.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fs.check("fs.read"); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	keep, flipByte, flipBit, lat, err := ff.fs.Inj.checkWrite("fs.write", len(p))
	if lat > 0 {
		ff.fs.Clock.Sleep(lat)
	}
	if err != nil {
		if keep > 0 {
			n, _ := ff.File.Write(p[:keep]) // partial prefix lands
			return n, err
		}
		return 0, err
	}
	if flipByte >= 0 {
		// Corrupt a copy; the caller's buffer stays pristine.
		dirty := make([]byte, len(p))
		copy(dirty, p)
		dirty[flipByte] ^= 1 << flipBit
		return ff.File.Write(dirty)
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.check("fs.sync"); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (ff *faultFile) Close() error {
	if err := ff.fs.check("fs.close"); err != nil {
		ff.File.Close() // release the descriptor regardless
		return err
	}
	return ff.File.Close()
}
