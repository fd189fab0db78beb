package ostore

import (
	"bytes"
	"encoding/gob"
	"io/fs"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"fastflip/internal/errfs"
	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/store"
)

// recordingFS fails and records every call, so a test can require that a
// store never touches its filesystem.
type recordingFS struct {
	mu    sync.Mutex
	calls []string
}

func (r *recordingFS) note(op, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, op+" "+name)
	return fs.ErrPermission
}

func (r *recordingFS) OpenFile(name string, _ int, _ fs.FileMode) (errfs.File, error) {
	return nil, r.note("open", name)
}
func (r *recordingFS) CreateTemp(dir, _ string) (errfs.File, error) {
	return nil, r.note("create-temp", dir)
}
func (r *recordingFS) ReadFile(name string) ([]byte, error) { return nil, r.note("read", name) }
func (r *recordingFS) Rename(oldpath, _ string) error       { return r.note("rename", oldpath) }
func (r *recordingFS) Truncate(name string, _ int64) error  { return r.note("truncate", name) }
func (r *recordingFS) Remove(name string) error             { return r.note("remove", name) }
func (r *recordingFS) MkdirAll(path string, _ fs.FileMode) error {
	return r.note("mkdir", path)
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestMemoryOnlyTouchesNoFiles runs a memory-only store through its whole
// life — open, publish, flush, look up, close — and requires that it never
// calls its filesystem and leaves the working directory as it found it.
func TestMemoryOnlyTouchesNoFiles(t *testing.T) {
	before := dirNames(t, ".")
	rec := &recordingFS{}
	s := mustOpen(t, Options{FS: rec})
	for i := 0; i < 3; i++ {
		if err := s.Put("t", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Get("t", testKey(1))
	s.Get("t", testKey(99)) // a miss must not rescan a directory
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 0 {
		t.Errorf("memory-only store called its filesystem: %v", rec.calls)
	}
	if after := dirNames(t, "."); !reflect.DeepEqual(before, after) {
		t.Errorf("working directory changed: %v -> %v", before, after)
	}
	if st := s.Stats(); st.FlushErrs != 0 || st.Segments != 0 || st.Bytes != 0 {
		t.Errorf("memory-only store reports disk state: %+v", st)
	}
}

// TestMemoryOnlyPutGet reads sections back while staged and after Flush,
// keeps the first write of a key, and counts live sections.
func TestMemoryOnlyPutGet(t *testing.T) {
	s := mustOpen(t, Options{})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put("t", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Sections; got != 3 {
		t.Errorf("staged sections = %d, want 3", got)
	}
	if got := s.Get("t", testKey(2)); !equalSections(got, testSection(2)) {
		t.Fatalf("staged key: got %+v", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second publish of a live key is a no-op: the first copy stays.
	if err := s.Put("u", testKey(0), testSection(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := s.Get("t", testKey(i)); !equalSections(got, testSection(i)) {
			t.Fatalf("flushed key %d: got %+v", i, got)
		}
	}
	if got := s.Get("t", testKey(99)); got != nil {
		t.Fatalf("unknown key: got %+v", got)
	}
	st := s.Stats()
	if st.Sections != 3 || st.Publishes != 3 {
		t.Errorf("sections=%d publishes=%d, want 3/3", st.Sections, st.Publishes)
	}
	if st.Hits != 4 || st.Misses != 1 || st.CacheBytes == 0 {
		t.Errorf("hits=%d misses=%d cache_bytes=%d, want 4/1/>0", st.Hits, st.Misses, st.CacheBytes)
	}
}

// TestMemoryOnlyEvictionIsMiss pushes sections past MaxCacheBytes: the
// evicted ones read back as misses, count as evictions, and stop counting
// as live.
func TestMemoryOnlyEvictionIsMiss(t *testing.T) {
	s := mustOpen(t, Options{MaxCacheBytes: 1})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put("t", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := s.Get("t", testKey(i)); got != nil {
			t.Errorf("evicted key %d still resolves", i)
		}
	}
	if got := s.Get("t", testKey(2)); !equalSections(got, testSection(2)) {
		t.Errorf("newest key: got %+v", got)
	}
	if st := s.Stats(); st.Sections != 1 || st.Evictions != 2 {
		t.Errorf("live sections = %d, evictions = %d, want 1 and 2", st.Sections, st.Evictions)
	}
	// An evicted key can be published again.
	if err := s.Put("t", testKey(0), testSection(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("t", testKey(0)); !equalSections(got, testSection(0)) {
		t.Errorf("republished key: got %+v", got)
	}
}

// TestMemoryOnlyCloseIdempotent closes twice; the closed store refuses
// publishes and resolves nothing.
func TestMemoryOnlyCloseIdempotent(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("t", testKey(1), testSection(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	if err := s.Put("t", testKey(2), testSection(2)); err != ErrClosed {
		t.Errorf("put after close = %v, want ErrClosed", err)
	}
	if got := s.Get("t", testKey(1)); got != nil {
		t.Error("closed store still resolves sections")
	}
}

// TestTierCountsItsOwnLookups gives two tenants their own Tier over one
// store: each counts only its own hits and misses.
func TestTierCountsItsOwnLookups(t *testing.T) {
	s := mustOpen(t, Options{})
	defer s.Close()
	a, b := s.AsTier("a"), s.AsTier("b")
	if a.TierLookup(testKey(1)) != nil {
		t.Fatal("empty store resolved a key")
	}
	a.TierPublish(testKey(1), testSection(1))
	if got := b.TierLookup(testKey(1)); !equalSections(got, testSection(1)) {
		t.Fatalf("tenant b: got %+v", got)
	}
	if a.Hits() != 0 || a.Misses() != 1 || b.Hits() != 1 || b.Misses() != 0 {
		t.Errorf("a %d/%d, b %d/%d hits/misses, want 0/1 and 1/0", a.Hits(), a.Misses(), b.Hits(), b.Misses())
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Tenants["a"].Publishes != 1 {
		t.Errorf("store stats %+v", st)
	}
}

// TestApproxEncodedSizeTracksGob: the size a memory-only store charges a
// section stays close to its gob payload, the unit MaxCacheBytes is
// measured in.
func TestApproxEncodedSizeTracksGob(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := &store.Section{
		Outcomes: map[sites.ClassKey]store.Outcome{},
		Final:    map[sites.ClassKey]store.Outcome{},
		Amp:      [][]float64{{1, 0.25, 3}, {0, 2, rng.Float64()}, {5, 6, 7}},
	}
	for i := 0; i < 500; i++ {
		k := sites.ClassKey{Static: prog.StaticID{Func: "kernel", Local: rng.Intn(400)}, Role: isa.OperandSrcA, Bit: uint8(rng.Intn(64))}
		mags := make([]float64, rng.Intn(4))
		for j := range mags {
			mags[j] = rng.ExpFloat64()
		}
		big.Outcomes[k] = store.Outcome{Kind: metrics.SDC, Magnitudes: mags}
		big.Final[k] = store.Outcome{Kind: metrics.Detected, Reason: metrics.DetectCrash}
	}
	for _, sec := range []*store.Section{testSection(1), big} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(segRecord{Sec: sec}); err != nil {
			t.Fatal(err)
		}
		est, enc := approxEncodedSize(sec), int64(buf.Len())
		if est < enc*3/4 || est > enc*3/2 {
			t.Errorf("%d outcomes: estimate %d bytes, gob %d", len(sec.Outcomes), est, enc)
		}
	}
}
