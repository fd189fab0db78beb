// Package errfs is the filesystem seam under the write-ahead campaign
// log and the store's atomic writes. Production code runs against the
// real filesystem (OS); chaos tests wrap it in a FaultFS whose fault
// plan injects EIO, ENOSPC, short writes, and failed fsyncs at chosen
// operations — so the resilience of the fault-analysis tooling can be
// tested with the same determinism it demands of its subjects.
//
// The interface is deliberately narrow: exactly the operations the WAL
// and the record files perform (open/write/sync plus the rename-based
// atomic-replace protocol of ReplaceFile, recovery's read/truncate, and
// the campaign directory sweep's listing, header read and remove).
// Anything the persistence layer does not do has no seam, so a fault
// plan cannot describe an impossible failure.
package errfs

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the file surface the persistence layer uses.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations behind WAL segments and store
// snapshots.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem. The zero cost of the indirection is
// checked by the WAL benchmarks: every call forwards straight to os.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReplaceFile atomically replaces path with the concatenation of chunks:
// it writes them, one Write call each, to a temporary file in path's
// directory, syncs and closes it, and renames it over path, so a crash
// mid-write never leaves a truncated file behind. Every step goes through
// fsys (nil = the real filesystem), so a fault plan can fail any of them;
// on failure the temporary file is removed and path keeps its old
// content.
func ReplaceFile(fsys FS, path string, chunks ...[]byte) error {
	if fsys == nil {
		fsys = OS()
	}
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if err == nil {
			_, err = f.Write(c) // a short write returns an error (io.Writer)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	if err != nil {
		fsys.Remove(f.Name())
	}
	return err
}

// Op classifies a filesystem operation for fault planning.
type Op uint8

// The plannable operation classes. OpWrite and OpSync are per-File
// operations; the rest are FS-level.
const (
	OpOpen Op = iota
	OpCreateTemp
	OpRead
	OpWrite
	OpSync
	OpRename
	OpTruncate
	OpRemove
	OpMkdir
	numOps
)

var opNames = [numOps]string{"open", "createtemp", "read", "write", "sync", "rename", "truncate", "remove", "mkdir"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Fault is one injected failure. Err is returned to the caller; for
// OpWrite, Short bytes are first written through to the underlying file,
// modeling a partial write (ENOSPC mid-record, torn append).
type Fault struct {
	Err   error
	Short int
}

// Plan decides, per operation, whether to inject a fault. It receives
// the operation class, the file path, and the 1-based count of calls to
// that class so far (faulted or not). Returning nil lets the operation
// through. Plans are invoked under the FaultFS mutex, so they may keep
// unsynchronized state, but must not call back into the FaultFS.
type Plan func(op Op, name string, count int) *Fault

// FailNth fails the n-th invocation of op (counting from 1) with err,
// once; every other operation passes through.
func FailNth(op Op, n int, err error) Plan {
	return func(o Op, _ string, count int) *Fault {
		if o == op && count == n {
			return &Fault{Err: err}
		}
		return nil
	}
}

// FailFrom fails every invocation of op from the n-th on — a disk that
// breaks and stays broken.
func FailFrom(op Op, n int, err error) Plan {
	return func(o Op, _ string, count int) *Fault {
		if o == op && count >= n {
			return &Fault{Err: err}
		}
		return nil
	}
}

// ShortWriteNth makes the n-th write a short write: short bytes land in
// the file, then err is returned. Subsequent writes pass through.
func ShortWriteNth(n, short int, err error) Plan {
	return func(o Op, _ string, count int) *Fault {
		if o == OpWrite && count == n {
			return &Fault{Err: err, Short: short}
		}
		return nil
	}
}

// FaultFS wraps an FS and injects faults according to a plan.
type FaultFS struct {
	base FS

	mu     sync.Mutex
	plan   Plan
	counts [numOps]int
	faults [numOps]int
}

// Wrap returns a FaultFS over base driven by plan. A nil base wraps the
// real filesystem; a nil plan injects nothing.
func Wrap(base FS, plan Plan) *FaultFS {
	if base == nil {
		base = OS()
	}
	return &FaultFS{base: base, plan: plan}
}

// SetPlan swaps the fault plan and resets the operation counters, so a
// test can re-arm the same FS for the next scenario.
func (f *FaultFS) SetPlan(plan Plan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.counts = [numOps]int{}
	f.faults = [numOps]int{}
}

// Counts returns how many invocations of op were seen and how many of
// them faulted.
func (f *FaultFS) Counts(op Op) (seen, faulted int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op], f.faults[op]
}

// check counts the invocation and consults the plan.
func (f *FaultFS) check(op Op, name string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	if f.plan == nil {
		return nil
	}
	ft := f.plan(op, name, f.counts[op])
	if ft != nil {
		f.faults[op]++
	}
	return ft
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if ft := f.check(OpOpen, name); ft != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: ft.Err}
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if ft := f.check(OpCreateTemp, dir); ft != nil {
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: ft.Err}
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if ft := f.check(OpRead, name); ft != nil {
		return nil, &fs.PathError{Op: "read", Path: name, Err: ft.Err}
	}
	return f.base.ReadFile(name)
}

// ReadDir counts as a read: listing a directory is one.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if ft := f.check(OpRead, name); ft != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: ft.Err}
	}
	return f.base.ReadDir(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if ft := f.check(OpRename, oldpath); ft != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: ft.Err}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if ft := f.check(OpTruncate, name); ft != nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: ft.Err}
	}
	return f.base.Truncate(name, size)
}

func (f *FaultFS) Remove(name string) error {
	if ft := f.check(OpRemove, name); ft != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: ft.Err}
	}
	return f.base.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if ft := f.check(OpMkdir, path); ft != nil {
		return &fs.PathError{Op: "mkdir", Path: path, Err: ft.Err}
	}
	return f.base.MkdirAll(path, perm)
}

// faultFile routes Read, Write and Sync back through the plan; Close and
// Name always pass through (a close that fails would leak the descriptor
// in the wrapped layer, and no caller branches on it).
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if ft := ff.fs.check(OpRead, ff.f.Name()); ft != nil {
		return 0, &fs.PathError{Op: "read", Path: ff.f.Name(), Err: ft.Err}
	}
	return ff.f.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ft := ff.fs.check(OpWrite, ff.f.Name()); ft != nil {
		n := 0
		if ft.Short > 0 {
			short := ft.Short
			if short > len(p) {
				short = len(p)
			}
			n, _ = ff.f.Write(p[:short])
		}
		return n, &fs.PathError{Op: "write", Path: ff.f.Name(), Err: ft.Err}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if ft := ff.fs.check(OpSync, ff.f.Name()); ft != nil {
		return &fs.PathError{Op: "sync", Path: ff.f.Name(), Err: ft.Err}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
func (ff *faultFile) Name() string { return ff.f.Name() }
