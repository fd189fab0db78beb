package ostore

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fastflip/internal/errfs"
	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/qcheck"
	"fastflip/internal/sites"
	"fastflip/internal/store"
)

// testKey derives a distinct, deterministic key.
func testKey(i int) store.Key {
	var k store.Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xa5
	return k
}

// testSection builds a small but non-trivial section whose content
// depends on i, so a wrong-section bug cannot pass equality by accident.
func testSection(i int) *store.Section {
	return &store.Section{
		Outcomes: map[sites.ClassKey]store.Outcome{
			{Static: prog.StaticID{Func: "k", Local: i}, Role: isa.OperandDst, Bit: 3}: {
				Kind:       metrics.SDC,
				Magnitudes: []float64{float64(i), 0.5},
			},
			{Static: prog.StaticID{Func: "k", Local: i}, Role: isa.OperandSrcA, Bit: 7}: {
				Kind:   metrics.Detected,
				Reason: metrics.DetectCrash,
			},
		},
		Amp:       [][]float64{{1, float64(i)}, {0, 2}},
		SimInstrs: uint64(1000 + i),
	}
}

// equalSections compares two sections structurally. Floats compare
// bitwise, so ±Inf, NaN payloads and signed zeros must survive a round
// trip exactly, and a nil Final (no co-run) is not an empty one.
func equalSections(a, b *store.Section) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.SimInstrs != b.SimInstrs || (a.Final == nil) != (b.Final == nil) {
		return false
	}
	eqOut := func(x, y map[sites.ClassKey]store.Outcome) bool {
		if len(x) != len(y) {
			return false
		}
		for k, ox := range x {
			oy, ok := y[k]
			if !ok || ox.Kind != oy.Kind || ox.Reason != oy.Reason || len(ox.Magnitudes) != len(oy.Magnitudes) {
				return false
			}
			for i := range ox.Magnitudes {
				if math.Float64bits(ox.Magnitudes[i]) != math.Float64bits(oy.Magnitudes[i]) {
					return false
				}
			}
		}
		return true
	}
	if !eqOut(a.Outcomes, b.Outcomes) || !eqOut(a.Final, b.Final) {
		return false
	}
	if len(a.Amp) != len(b.Amp) {
		return false
	}
	for i := range a.Amp {
		if len(a.Amp[i]) != len(b.Amp[i]) {
			return false
		}
		for j := range a.Amp[i] {
			if math.Float64bits(a.Amp[i][j]) != math.Float64bits(b.Amp[i][j]) {
				return false
			}
		}
	}
	return true
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutFlushReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.Put("t1", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Staged sections are visible before any flush.
	if got := s.Get("t1", testKey(1)); !equalSections(got, testSection(1)) {
		t.Fatalf("pending lookup: got %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t1", testKey(9), testSection(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if got := s.Get("t1", testKey(0)); got != nil {
		t.Fatalf("Get after Close returned %+v", got)
	}

	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	for i := 0; i < 3; i++ {
		if got := r.Get("t2", testKey(i)); !equalSections(got, testSection(i)) {
			t.Fatalf("reopened lookup %d: got %+v", i, got)
		}
	}
	if got := r.Get("t2", testKey(99)); got != nil {
		t.Fatalf("unknown key returned %+v", got)
	}
	st := r.Stats()
	if st.Sections != 3 || st.Segments != 1 {
		t.Fatalf("stats: %d sections in %d segments, want 3 in 1", st.Sections, st.Segments)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats: %d hits / %d misses, want 3/1", st.Hits, st.Misses)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats: %d live bytes, want > 0", st.Bytes)
	}
	ts := st.Tenants["t2"]
	if ts.Hits != 3 || ts.Misses != 1 {
		t.Fatalf("tenant t2 stats: %+v", ts)
	}
}

// TestCodecRoundTripProperty drives randomized sections — ±Inf and NaN
// magnitudes, signed zeros, nil, empty and populated Final maps,
// rectangular Amp matrices of any shape — through Put/Flush and back in
// through a fresh handle, and requires the decoded section to match the
// original bit for bit.
func TestCodecRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	defer w.Close()

	n := 0
	prop := func(seed uint64) bool {
		n++
		rng := rand.New(rand.NewSource(int64(seed)))
		var key store.Key
		rng.Read(key[:])
		key[0] = byte(n) // unique per iteration even if quick repeats a seed
		sec := randSection(rng)

		if err := w.Put("prop", key, sec); err != nil {
			t.Logf("Put: %v", err)
			return false
		}
		if err := w.Flush(); err != nil {
			t.Logf("Flush: %v", err)
			return false
		}
		r, err := Open(Options{Dir: dir})
		if err != nil {
			t.Logf("Open: %v", err)
			return false
		}
		defer r.Close()
		got := r.Get("prop", key)
		if !equalSections(got, sec) {
			t.Logf("round trip diverged:\n put %+v\n got %+v", sec, got)
			return false
		}
		return true
	}
	max := 24
	if testing.Short() {
		max = 6
	}
	if err := quick.Check(prop, qcheck.Config(t, max)); err != nil {
		t.Fatal(err)
	}
}

// randSection generates a section exercising the encoding's edge cases.
func randSection(rng *rand.Rand) *store.Section {
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	randFloat := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	randOutcomes := func(minClasses int) map[sites.ClassKey]store.Outcome {
		m := make(map[sites.ClassKey]store.Outcome)
		for i := 0; i < minClasses+rng.Intn(4); i++ {
			var mags []float64
			for j := rng.Intn(4); j > 0; j-- {
				mags = append(mags, randFloat())
			}
			m[sites.ClassKey{
				Static: prog.StaticID{Func: "f" + string(rune('a'+rng.Intn(3))), Local: rng.Intn(8)},
				Role:   isa.OperandRole(rng.Intn(3)),
				Bit:    uint8(rng.Intn(64)),
			}] = store.Outcome{
				Kind:       metrics.OutcomeKind(rng.Intn(3)),
				Reason:     metrics.DetectReason(rng.Intn(4)),
				Magnitudes: mags,
			}
		}
		return m
	}
	sec := &store.Section{
		Outcomes:  randOutcomes(1),
		SimInstrs: rng.Uint64(),
	}
	switch rng.Intn(3) {
	case 0: // nil Final: no co-run
	case 1: // empty but non-nil: a co-run with no classes
		sec.Final = map[sites.ClassKey]store.Outcome{}
	case 2:
		sec.Final = randOutcomes(0)
	}
	rows, cols := rng.Intn(4), rng.Intn(4)
	for i := 0; i < rows; i++ {
		row := make([]float64, cols)
		for j := range row {
			row[j] = randFloat()
		}
		sec.Amp = append(sec.Amp, row)
	}
	return sec
}

// segFiles lists the published segment base names in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".ffo") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// publishThree seals sections 0..2 into a single segment and closes.
func publishThree(t *testing.T, dir string) string {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.Put("pub", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("published %d segments, want 1: %v", len(segs), segs)
	}
	return filepath.Join(dir, segs[0])
}

// TestTruncatedSegmentTail cuts a segment mid-record, as a crashed or
// torn write would. The records before the tear must still load; the torn
// one must read as a miss, never as a wrong section.
func TestTruncatedSegmentTail(t *testing.T) {
	dir := t.TempDir()
	seg := publishThree(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	for i := 0; i < 2; i++ {
		if got := r.Get("x", testKey(i)); !equalSections(got, testSection(i)) {
			t.Fatalf("pre-tear record %d: got %+v", i, got)
		}
	}
	if got := r.Get("x", testKey(2)); got != nil {
		t.Fatalf("torn record resolved to %+v, want miss", got)
	}
	st := r.Stats()
	if st.Corrupt == 0 {
		t.Fatal("truncation not counted in Corrupt")
	}
	if st.Sections != 2 {
		t.Fatalf("%d sections survive the tear, want 2", st.Sections)
	}
}

// TestFlippedIndexByte corrupts the checkpoint. The index is advisory:
// the store must fall back to scanning segments and lose nothing.
func TestFlippedIndexByte(t *testing.T) {
	dir := t.TempDir()
	publishThree(t, dir)
	idx := filepath.Join(dir, "index.ffi")
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	st := r.Stats()
	if st.Corrupt == 0 {
		t.Fatal("checkpoint corruption not counted")
	}
	if st.Sections != 3 {
		t.Fatalf("%d sections after checkpoint loss, want 3 (rescan fallback)", st.Sections)
	}
	for i := 0; i < 3; i++ {
		if got := r.Get("x", testKey(i)); !equalSections(got, testSection(i)) {
			t.Fatalf("record %d after checkpoint loss: got %+v", i, got)
		}
	}
}

// TestFlippedSegmentByte flips one payload byte in the middle record.
// The CRC must catch it: records at and after the flip read as misses,
// records before it stay intact, and no lookup ever returns a section
// other than the one its key names.
func TestFlippedSegmentByte(t *testing.T) {
	dir := t.TempDir()
	seg := publishThree(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly the middle of the file lands inside record 1 of 3.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, MaxCacheBytes: -1})
	defer r.Close()
	if got := r.Get("x", testKey(0)); !equalSections(got, testSection(0)) {
		t.Fatalf("record before flip: got %+v", got)
	}
	for i := 1; i < 3; i++ {
		if got := r.Get("x", testKey(i)); got != nil {
			if equalSections(got, testSection(i)) {
				t.Fatalf("record %d read back intact through a flipped byte", i)
			}
			t.Fatalf("record %d resolved to a WRONG section: %+v", i, got)
		}
	}
	if st := r.Stats(); st.Corrupt == 0 {
		t.Fatal("segment corruption not counted")
	}
}

// TestCrossProcessVisibility publishes through one handle and reads
// through another opened before the publish — the lazy directory rescan
// that stands in for cross-process cache coherence.
func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, Options{Dir: dir})
	defer a.Close()
	b := mustOpen(t, Options{Dir: dir})
	defer b.Close()

	if err := a.Put("writer", testKey(7), testSection(7)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Get("reader", testKey(7)); !equalSections(got, testSection(7)) {
		t.Fatalf("cross-handle lookup: got %+v", got)
	}
	if st := b.Stats(); st.Hits != 1 || st.Tenants["reader"].Hits != 1 {
		t.Fatalf("cross-handle hit not counted: %+v", st)
	}
}

// TestConcurrentPublish runs two independent handles over one directory
// publishing overlapping key ranges concurrently (the two-Manager
// scenario), then verifies every key resolves to exactly its own
// content from both original handles and a fresh one.
func TestConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, Options{Dir: dir})
	defer a.Close()
	b := mustOpen(t, Options{Dir: dir})
	defer b.Close()

	const n = 24 // keys 0..n-1 from a, n/2..n+n/2-1 from b: middle half contested
	var wg sync.WaitGroup
	pub := func(s *Store, tenant string, lo, hi int) {
		defer wg.Done()
		for i := lo; i < hi; i++ {
			if err := s.Put(tenant, testKey(i), testSection(i)); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := s.Flush(); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go pub(a, "a", 0, n)
	go pub(b, "b", n/2, n+n/2)
	wg.Wait()

	c := mustOpen(t, Options{Dir: dir})
	defer c.Close()
	for _, s := range []*Store{a, b, c} {
		for i := 0; i < n+n/2; i++ {
			if got := s.Get("check", testKey(i)); !equalSections(got, testSection(i)) {
				t.Fatalf("key %d after concurrent publish: got %+v", i, got)
			}
		}
	}
	if st := c.Stats(); st.Sections != n+n/2 {
		t.Fatalf("%d sections, want %d", st.Sections, n+n/2)
	}
}

// TestFirstWriteWins has two handles publish the same key without seeing
// each other. Both segments land on disk, but a fresh index must count
// the section once and keep serving it correctly.
func TestFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, Options{Dir: dir})
	b := mustOpen(t, Options{Dir: dir})
	for _, s := range []*Store{a, b} {
		if err := s.Put("dup", testKey(1), testSection(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Fatalf("expected both duplicate segments on disk, found %v", segs)
	}
	c := mustOpen(t, Options{Dir: dir})
	defer c.Close()
	st := c.Stats()
	if st.Sections != 1 {
		t.Fatalf("duplicate publish counted %d sections, want 1", st.Sections)
	}
	if got := c.Get("x", testKey(1)); !equalSections(got, testSection(1)) {
		t.Fatalf("deduplicated key: got %+v", got)
	}
}

// TestAutoFlush verifies Put seals a segment on its own once the staged
// batch passes MaxSegmentBytes.
func TestAutoFlush(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, MaxSegmentBytes: 1})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put("t", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := segFiles(t, dir); len(segs) != 3 {
		t.Fatalf("auto-flush produced %d segments, want 3", len(segs))
	}
	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	for i := 0; i < 3; i++ {
		if got := r.Get("t", testKey(i)); !equalSections(got, testSection(i)) {
			t.Fatalf("auto-flushed key %d: got %+v", i, got)
		}
	}
}

// TestTenantQuotaEviction publishes far past one tenant's quota and
// checks that its oldest sections are evicted (and their all-dead
// segments deleted) while another tenant's section survives.
func TestTenantQuotaEviction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, TenantQuotaBytes: 2048, MaxSegmentBytes: 1})
	defer s.Close()

	if err := s.Put("small", testKey(1000), testSection(1000)); err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := s.Put("big", testKey(i), testSection(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 || st.Tenants["big"].Evictions == 0 {
		t.Fatalf("quota produced no evictions: %+v", st)
	}
	if b := st.Tenants["big"].Bytes; b > 2048 {
		t.Fatalf("tenant big still holds %d live bytes, quota 2048", b)
	}
	if st.Tenants["small"].Bytes <= 0 {
		t.Fatalf("unrelated tenant was evicted: %+v", st.Tenants["small"])
	}
	// Eviction is oldest-first: the first key is gone, the last survives.
	if got := s.Get("x", testKey(0)); got != nil {
		t.Fatalf("oldest section survived quota eviction: %+v", got)
	}
	if got := s.Get("x", testKey(n-1)); !equalSections(got, testSection(n-1)) {
		t.Fatalf("newest section evicted: got %+v", got)
	}
	if got := s.Get("x", testKey(1000)); !equalSections(got, testSection(1000)) {
		t.Fatalf("other tenant's section evicted: got %+v", got)
	}
	// All-dead segments are compacted away: far fewer files than publishes.
	if segs := segFiles(t, dir); len(segs) >= n {
		t.Fatalf("%d segment files remain after eviction, want < %d", len(segs), n)
	}
}

// TestPublishFaults breaks each step of the publish protocol through the
// errfs seam. Every failure must be reported, counted, and leave the
// staged batch intact so the next attempt succeeds; a failed publish must
// never become visible to other handles.
func TestPublishFaults(t *testing.T) {
	eio := errors.New("injected: EIO")
	steps := []struct {
		name string
		plan errfs.Plan
	}{
		{"createtemp", errfs.FailNth(errfs.OpCreateTemp, 1, eio)},
		{"write", errfs.FailNth(errfs.OpWrite, 1, eio)},
		{"shortwrite", errfs.ShortWriteNth(2, 3, eio)},
		{"sync", errfs.FailNth(errfs.OpSync, 1, eio)},
		{"rename", errfs.FailNth(errfs.OpRename, 1, eio)},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := errfs.Wrap(nil, nil)
			s := mustOpen(t, Options{Dir: dir, FS: ffs})
			defer s.Close()

			if err := s.Put("t", testKey(1), testSection(1)); err != nil {
				t.Fatal(err)
			}
			ffs.SetPlan(step.plan)
			if err := s.Flush(); err == nil {
				t.Fatal("Flush succeeded through an injected fault")
			}
			if st := s.Stats(); st.FlushErrs != 1 {
				t.Fatalf("FlushErrs = %d, want 1", st.FlushErrs)
			}
			// The failed publish is invisible to a fresh handle...
			ffs.SetPlan(nil)
			r := mustOpen(t, Options{Dir: dir})
			if got := r.Get("x", testKey(1)); got != nil {
				t.Fatalf("failed publish visible to fresh handle: %+v", got)
			}
			r.Close()
			// ...but the batch is retained: still a pending hit here, and
			// the next flush publishes it for real.
			if got := s.Get("t", testKey(1)); !equalSections(got, testSection(1)) {
				t.Fatalf("staged batch lost after failed flush: %+v", got)
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("retry flush: %v", err)
			}
			r = mustOpen(t, Options{Dir: dir})
			defer r.Close()
			if got := r.Get("x", testKey(1)); !equalSections(got, testSection(1)) {
				t.Fatalf("retried publish unreadable: %+v", got)
			}
			// The aborted attempt must not leak temp files.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("temp file leaked: %s", e.Name())
				}
			}
		})
	}
}
