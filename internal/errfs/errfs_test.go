package errfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	f, err := OS().OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := OS().ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS().Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	if err := OS().Rename(path, path+"2"); err != nil {
		t.Fatal(err)
	}
	if err := OS().Remove(path + "2"); err != nil {
		t.Fatal(err)
	}
}

func TestFailNthWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, FailNth(OpWrite, 2, syscall.ENOSPC))
	f, err := ffs.OpenFile(filepath.Join(dir, "w"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("aa")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if n, err := f.Write([]byte("bb")); !errors.Is(err, syscall.ENOSPC) || n != 0 {
		t.Fatalf("second write = %d, %v; want 0, ENOSPC", n, err)
	}
	if _, err := f.Write([]byte("cc")); err != nil {
		t.Fatalf("third write: %v", err)
	}
	data, _ := os.ReadFile(f.Name())
	if string(data) != "aacc" {
		t.Fatalf("file = %q, want aacc (faulted write must not land)", data)
	}
	if seen, faulted := ffs.Counts(OpWrite); seen != 3 || faulted != 1 {
		t.Fatalf("write counts = %d seen, %d faulted", seen, faulted)
	}
}

func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, ShortWriteNth(1, 3, syscall.EIO))
	f, err := ffs.OpenFile(filepath.Join(dir, "s"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("abcdef")); !errors.Is(err, syscall.EIO) || n != 3 {
		t.Fatalf("short write = %d, %v; want 3, EIO", n, err)
	}
	data, _ := os.ReadFile(f.Name())
	if string(data) != "abc" {
		t.Fatalf("file = %q, want the 3 short bytes", data)
	}
}

func TestSyncAndMetaFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(nil, func(op Op, _ string, _ int) *Fault {
		switch op {
		case OpSync, OpRename, OpTruncate, OpMkdir, OpOpen, OpCreateTemp, OpRead, OpRemove:
			return &Fault{Err: syscall.EIO}
		}
		return nil
	})
	if _, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE, 0o644); !errors.Is(err, syscall.EIO) {
		t.Errorf("open = %v", err)
	}
	if _, err := ffs.CreateTemp(dir, "t-*"); !errors.Is(err, syscall.EIO) {
		t.Errorf("createtemp = %v", err)
	}
	if _, err := ffs.ReadFile(filepath.Join(dir, "x")); !errors.Is(err, syscall.EIO) {
		t.Errorf("read = %v", err)
	}
	if _, err := ffs.ReadDir(dir); !errors.Is(err, syscall.EIO) {
		t.Errorf("readdir = %v", err)
	}
	if err := ffs.Rename("a", "b"); !errors.Is(err, syscall.EIO) {
		t.Errorf("rename = %v", err)
	}
	if err := ffs.Truncate("a", 0); !errors.Is(err, syscall.EIO) {
		t.Errorf("truncate = %v", err)
	}
	if err := ffs.Remove("a"); !errors.Is(err, syscall.EIO) {
		t.Errorf("remove = %v", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "d"), 0o755); !errors.Is(err, syscall.EIO) {
		t.Errorf("mkdir = %v", err)
	}

	// Sync faults are delivered through files opened before the plan, too.
	ffs.SetPlan(FailNth(OpSync, 1, syscall.EIO))
	f, err := ffs.OpenFile(filepath.Join(dir, "y"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Errorf("sync = %v", err)
	}
	ffs.SetPlan(FailNth(OpRead, 1, syscall.EIO))
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, syscall.EIO) {
		t.Errorf("file read = %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Errorf("second sync = %v", err)
	}
}

func TestSetPlanResetsCounts(t *testing.T) {
	ffs := Wrap(nil, nil)
	ffs.MkdirAll(t.TempDir(), 0o755)
	if seen, _ := ffs.Counts(OpMkdir); seen != 1 {
		t.Fatalf("mkdir count = %d", seen)
	}
	ffs.SetPlan(nil)
	if seen, _ := ffs.Counts(OpMkdir); seen != 0 {
		t.Fatalf("mkdir count after SetPlan = %d", seen)
	}
}
