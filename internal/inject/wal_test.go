package inject

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
)

func walKey(b byte) (k [32]byte) {
	for i := range k {
		k[i] = b
	}
	return k
}

func sampleRecords() []WALRecord {
	return []WALRecord{
		{
			Key:  sites.ClassKey{Static: prog.StaticID{Func: "scale", Local: 3}, Role: isa.OperandDst, Bit: 17},
			Out:  metrics.Outcome{Kind: metrics.SDC, Magnitudes: []float64{0.25, math.Inf(1)}},
			Cost: Stats{Experiments: 1, SimInstrs: 120, CleanInstrs: 30, FaultyInstrs: 90},
		},
		{
			Key:  sites.ClassKey{Static: prog.StaticID{Func: "square", Local: 0}, Role: isa.OperandSrcA, Bit: 63},
			Out:  metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectCrash},
			Fin:  &metrics.Outcome{Kind: metrics.Masked},
			Cost: Stats{Experiments: 1, SimInstrs: 7, CleanInstrs: 7},
		},
		{
			Key:  sites.ClassKey{Static: prog.StaticID{Func: "square", Local: 2}, Role: isa.OperandSrcB, Bit: 0},
			Out:  metrics.Outcome{Kind: metrics.Masked, Magnitudes: []float64{0}},
			Cost: Stats{Experiments: 1, SimInstrs: 55, FaultyInstrs: 55},
		},
	}
}

func outcomeEqual(a, b metrics.Outcome) bool {
	if a.Kind != b.Kind || a.Reason != b.Reason || len(a.Magnitudes) != len(b.Magnitudes) {
		return false
	}
	for i := range a.Magnitudes {
		if math.Float64bits(a.Magnitudes[i]) != math.Float64bits(b.Magnitudes[i]) {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := walKey(0xAB)
	w, rec, err := OpenSectionWAL(dir, key, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Sealed {
		t.Fatalf("fresh segment not empty: %+v", rec)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	amp := WALAmp{K: [][]float64{{1, 0.5}, {math.Inf(1), 0}}, Runs: 64, SimInstrs: 999}
	if err := w.AppendAmp(amp); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec2, err := OpenSectionWAL(dir, key, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean segment reported %d truncated bytes", rec2.TruncatedBytes)
	}
	if !rec2.Sealed {
		t.Fatal("sealed segment not recognised as sealed")
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for _, r := range want {
		got, ok := rec2.Records[r.Key]
		if !ok {
			t.Fatalf("record %v missing", r.Key)
		}
		if !outcomeEqual(got.Out, r.Out) {
			t.Errorf("record %v outcome = %+v, want %+v", r.Key, got.Out, r.Out)
		}
		if (got.Fin == nil) != (r.Fin == nil) || (got.Fin != nil && !outcomeEqual(*got.Fin, *r.Fin)) {
			t.Errorf("record %v fin mismatch", r.Key)
		}
		if got.Cost != r.Cost {
			t.Errorf("record %v cost = %+v, want %+v", r.Key, got.Cost, r.Cost)
		}
	}
	if rec2.Amp == nil || rec2.Amp.Runs != amp.Runs || rec2.Amp.SimInstrs != amp.SimInstrs {
		t.Fatalf("amp not recovered: %+v", rec2.Amp)
	}
	for i := range amp.K {
		for j := range amp.K[i] {
			if math.Float64bits(rec2.Amp.K[i][j]) != math.Float64bits(amp.K[i][j]) {
				t.Errorf("amp K[%d][%d] = %v, want %v", i, j, rec2.Amp.K[i][j], amp.K[i][j])
			}
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	key := walKey(1)
	w, _, err := OpenSectionWAL(dir, key, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := SegmentPath(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the last record.
	torn := data[:len(data)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := OpenSectionWAL(dir, key, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(rec.Records) != len(want)-1 {
		t.Fatalf("recovered %d records from torn segment, want %d", len(rec.Records), len(want)-1)
	}
	if rec.Sealed {
		t.Fatal("torn segment reported sealed")
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The file must have been truncated back to its last whole record, so a
	// subsequent append produces a fully valid segment again.
	if err := w2.Append(want[len(want)-1]); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, rec3, err := OpenSectionWAL(dir, key, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TruncatedBytes != 0 || len(rec3.Records) != len(want) {
		t.Fatalf("segment not clean after repair: truncated=%d records=%d", rec3.TruncatedBytes, len(rec3.Records))
	}
}

func TestWALChecksumCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	key := walKey(2)
	w, _, err := OpenSectionWAL(dir, key, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := SegmentPath(dir, key)
	data, _ := os.ReadFile(path)
	// Flip one payload byte in the middle of the file (not the tail):
	// recovery must stop at the corrupt record and drop it plus everything
	// after, never merging data that fails its checksum.
	data[walHeaderSize+8+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenSectionWAL(dir, key, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records past a corrupt one, want 0", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corruption not reported as truncation")
	}
}

func TestWALHeaderMismatchRecreates(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenSectionWAL(dir, walKey(3), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Same key, different campaign fingerprint: segment must be recreated.
	_, rec, err := OpenSectionWAL(dir, walKey(3), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fingerprint-mismatched segment was not recreated: %+v", rec)
	}
	fi, err := os.Stat(SegmentPath(dir, walKey(3)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(walHeaderSize) {
		t.Fatalf("recreated segment size = %d, want bare header %d", fi.Size(), walHeaderSize)
	}
}

func TestWALNoResumeWipes(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenSectionWAL(dir, walKey(4), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec, err := OpenSectionWAL(dir, walKey(4), 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatal("resume=false must start a fresh segment")
	}
}

func TestWALSealWithoutAmpNotSealed(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenSectionWAL(dir, walKey(5), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec, err := OpenSectionWAL(dir, walKey(5), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sealed {
		t.Fatal("segment without an amp record must not count as sealed")
	}
	if len(rec.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(rec.Records))
	}
}

// TestWALSweepSegments: a resume sweep keeps exactly the segments that
// carry the campaign's fingerprint; a fresh sweep keeps none. Both remove
// short segments, orphaned ReplaceFile temporaries and an old manifest,
// and leave unknown files (the lock) alone.
func TestWALSweepSegments(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		for i, fp := range []uint64{7, 7, 8} {
			w, _, err := OpenSectionWAL(dir, walKey(byte(i)), fp, false)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		for _, name := range []string{"short.wal", ".0303.wal-12345.tmp", oldLedger, "campaign.lock"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		n, err := SweepSegments(nil, dir, 7, resume)
		if err != nil {
			t.Fatal(err)
		}
		want, wantN := []string{"campaign.lock"}, 4
		if resume {
			want, wantN = append(want, filepath.Base(SegmentPath(dir, walKey(0))), filepath.Base(SegmentPath(dir, walKey(1)))), 2
		}
		if n != wantN {
			t.Errorf("resume=%v: swept %d segments, want %d", resume, n, wantN)
		}
		var got []string
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			got = append(got, e.Name())
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("resume=%v: directory holds %v, want %v", resume, got, want)
		}
	}
}
