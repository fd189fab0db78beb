package main

import "fastflip/internal/errfs"

// tierFS is the shared tier's filesystem: the real one, except that a
// segment's fsync returns at once. Segments are still written, renamed,
// read back and rescanned through the page cache, so the tier's encoding
// and I/O path is measured; its durability barrier, which on a shared VM
// measures the host's disk queue rather than the program, is not. The WAL
// is left out of the benchmark for the same reason.
type tierFS struct{ errfs.FS }

func newTierFS() tierFS { return tierFS{errfs.OS()} }

func (f tierFS) CreateTemp(dir, pattern string) (errfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

// noSyncFile is a segment file whose Sync does nothing.
type noSyncFile struct{ errfs.File }

func (noSyncFile) Sync() error { return nil }
