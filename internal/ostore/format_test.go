package ostore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastflip/internal/record"
)

// TestPutRefusesOversize: a section whose record exceeds the frame bound
// is refused by Put, never staged or written, so no reader drops it
// together with the records behind it.
func TestPutRefusesOversize(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	defer s.Close()
	if err := s.Put("t", testKey(1), testSection(1)); err != nil {
		t.Fatal(err)
	}
	n, err := appendRecord(nil, testKey(2), "t", testSection(2))
	if err != nil {
		t.Fatal(err)
	}
	restore := SetMaxPayload(len(n) - 1)
	err = s.Put("t", testKey(2), testSection(2))
	restore()
	if !errors.Is(err, record.ErrTooLarge) {
		t.Fatalf("oversize Put: %v", err)
	}
	if err := s.Put("t", testKey(3), testSection(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	if st := r.Stats(); st.Sections != 2 || st.Corrupt != 0 {
		t.Fatalf("reopened: %d sections, %d corrupt; want 2 and 0", st.Sections, st.Corrupt)
	}
	if r.Get("x", testKey(2)) != nil || !equalSections(r.Get("x", testKey(3)), testSection(3)) {
		t.Fatal("refused section published, or the one after it lost")
	}
}

// TestTierPublishCountsRefusal: a section the tier refuses through
// TierPublish, which has no error to return, is counted in
// Stats.PublishErrs instead of vanishing silently.
func TestTierPublishCountsRefusal(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	defer s.Close()
	tier := s.AsTier("t")
	tier.TierPublish(testKey(1), testSection(1))
	restore := SetMaxPayload(1)
	tier.TierPublish(testKey(2), testSection(2))
	restore()
	if st := s.Stats(); st.PublishErrs != 1 || st.Publishes != 1 {
		t.Fatalf("publish_errors %d, publishes %d; want 1 and 1", st.PublishErrs, st.Publishes)
	}
	if tier.TierLookup(testKey(2)) != nil {
		t.Fatal("refused section is visible")
	}
}

// TestPutRefusesRaggedAmp: a ragged amplification matrix is an encode
// error, the same as the WAL's amp record.
func TestPutRefusesRaggedAmp(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	defer s.Close()
	sec := testSection(1)
	sec.Amp = [][]float64{{1, 2}, {3}}
	if err := s.Put("t", testKey(1), sec); err == nil {
		t.Fatal("ragged Amp accepted")
	}
	if st := s.Stats(); st.Sections != 0 {
		t.Fatalf("%d sections staged after a refused Put", st.Sections)
	}
}

// TestV1TierSkipped opens a tier directory written by the gob record
// format (segMagic and indexMagic version 1): the checkpoint and the
// segment are both counted corrupt and skipped, every lookup misses, and
// a section published afresh is served.
func TestV1TierSkipped(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "v1tier")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, Options{Dir: dir})
	defer s.Close()
	if st := s.Stats(); st.Corrupt != 2 || st.Sections != 0 {
		t.Fatalf("v1 tier: %d corrupt, %d sections; want 2 and 0", st.Corrupt, st.Sections)
	}
	if got := s.Get("x", testKey(1)); got != nil {
		t.Fatalf("v1 section served: %+v", got)
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Fatalf("the miss read the v1 segment again: %d corrupt", st.Corrupt)
	}
	if err := s.Put("x", testKey(1), testSection(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Get("x", testKey(1)); !equalSections(got, testSection(1)) {
		t.Fatalf("republished section: %+v", got)
	}
}
