package inject

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastflip/internal/metrics"
	"fastflip/internal/record"
)

// legacySegment reads testdata/legacy.wal, a sealed segment of a co-run
// campaign over testprog.Pipeline's second section written by the WAL
// encoder in use before internal/record existed, and returns it with its
// section key and fingerprint.
func legacySegment(t testing.TB) (data []byte, key [32]byte, fp uint64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.wal"))
	if err != nil {
		t.Fatal(err)
	}
	copy(key[:], data[len(walMagic):])
	return data, key, binary.LittleEndian.Uint64(data[len(walMagic)+32:])
}

// TestLegacySegmentRecoversByteForByte: a segment written by the earlier
// encoder recovers completely, and logging what it holds again, in file
// order, through today's writer reproduces the file byte for byte.
func TestLegacySegmentRecoversByteForByte(t *testing.T) {
	data, key, fp := legacySegment(t)
	dir := t.TempDir()
	if err := os.WriteFile(SegmentPath(dir, key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := OpenSectionWAL(dir, key, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if !rec.Sealed || rec.TruncatedBytes != 0 || len(rec.Records) != 24 || len(rec.Poisoned) != 1 || len(rec.Shards) != 1 {
		t.Fatalf("recovered sealed=%v truncated=%d records=%d poisoned=%d shards=%d",
			rec.Sealed, rec.TruncatedBytes, len(rec.Records), len(rec.Poisoned), len(rec.Shards))
	}

	again := t.TempDir()
	w2, _, err := OpenSectionWAL(again, key, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	for off := walHeaderSize; off < len(data); {
		payload, next, ok := record.Next(data, off)
		if !ok {
			t.Fatalf("frame at %d does not validate", off)
		}
		r, err := parseRecord(payload)
		if err == nil {
			switch r.Type {
			case walRecExperiment:
				err = w2.Append(r.Experiment)
			case walRecPoison:
				err = w2.AppendPoison(r.Poison)
			case walRecShard:
				err = w2.AppendShard(r.Shard)
			case walRecAmp:
				err = w2.AppendAmp(*r.Amp)
			case walRecSeal:
				err = w2.Seal()
			}
		}
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		off = next
	}
	w2.Close()
	got, err := os.ReadFile(SegmentPath(again, key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("re-logged segment differs: %d bytes, legacy file %d", len(got), len(data))
	}
}

// TestLegacyStreamRecoversByteForByte: a shard stream written by the
// earlier encoder reads back completely, and writing its records again
// reproduces it byte for byte.
func TestLegacyStreamRecoversByteForByte(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.stream"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := NewStreamWriter(&out)
	r := NewStreamReader(bytes.NewReader(data))
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		switch rec.Type {
		case StreamExperiment:
			err = w.WriteExperiment(rec.Experiment)
		case StreamPoison:
			err = w.WritePoison(rec.Poison)
		case StreamSeal:
			err = w.WriteSeal(rec.Seal)
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 26 || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("%d frames re-written to %d bytes, legacy stream %d frames, %d bytes", n, out.Len(), 26, len(data))
	}
}

// bigRecord is an experiment record whose payload exceeds 64 bytes.
func bigRecord() WALRecord {
	return WALRecord{Key: streamKey(9, 1), Out: metrics.Outcome{Kind: metrics.SDC, Magnitudes: make([]float64, 16)}, Cost: Stats{Experiments: 1}}
}

// TestWALOversizeRecordDegrades: a record over the frame bound is never
// written; the segment degrades through its latch and keeps every record
// before it readable.
func TestWALOversizeRecordDegrades(t *testing.T) {
	defer SetMaxPayload(64)()
	dir := t.TempDir()
	key := walKey(3)
	w, _, err := OpenSectionWAL(dir, key, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	small := WALRecord{Key: streamKey(1, 0), Out: metrics.Outcome{Kind: metrics.Masked}, Cost: Stats{Experiments: 1}}
	if err := w.Append(small); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(bigRecord()); !errors.Is(err, ErrWALDegraded) || !strings.Contains(err.Error(), record.ErrTooLarge.Error()) {
		t.Fatalf("oversize append: %v", err)
	}
	if !w.Degraded() {
		t.Fatal("segment did not degrade")
	}
	if err := w.Append(small); !errors.Is(err, ErrWALDegraded) {
		t.Fatalf("append after degrading: %v", err)
	}
	w.Close()
	_, rec, err := OpenSectionWAL(dir, key, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, %d truncated bytes; want 1 and 0", len(rec.Records), rec.TruncatedBytes)
	}
}

// TestWALRaggedAmpDegrades: a ragged amplification matrix is an encode
// error that degrades the segment, not a record a reader misparses.
func TestWALRaggedAmpDegrades(t *testing.T) {
	w, _, err := OpenSectionWAL(t.TempDir(), walKey(4), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendAmp(WALAmp{K: [][]float64{{1, 2}, {math.Inf(1)}}}); !errors.Is(err, ErrWALDegraded) {
		t.Fatalf("ragged amp: %v", err)
	}
	if !w.Degraded() {
		t.Fatal("segment did not degrade")
	}
}

// TestStreamWriterRefusesOversize: the stream writer returns an error for
// a frame every reader would reject, and writes nothing.
func TestStreamWriterRefusesOversize(t *testing.T) {
	defer SetMaxPayload(64)()
	var buf bytes.Buffer
	if err := NewStreamWriter(&buf).WriteExperiment(bigRecord()); !errors.Is(err, record.ErrTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize frame wrote %d bytes", buf.Len())
	}
}

// FuzzStreamReader: no input panics the reader, and every record it
// returns is re-encoded to bytes that decode to the same encoding.
func FuzzStreamReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var once bytes.Buffer
		w := NewStreamWriter(&once)
		r := NewStreamReader(bytes.NewReader(data))
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			switch rec.Type {
			case StreamExperiment:
				err = w.WriteExperiment(rec.Experiment)
			case StreamPoison:
				err = w.WritePoison(rec.Poison)
			case StreamSeal:
				err = w.WriteSeal(rec.Seal)
			}
			if err != nil {
				t.Fatalf("re-encoding a decoded record: %v", err)
			}
		}
		var twice bytes.Buffer
		w = NewStreamWriter(&twice)
		r = NewStreamReader(bytes.NewReader(once.Bytes()))
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("re-encoded stream does not read back: %v", err)
			}
			switch rec.Type {
			case StreamExperiment:
				w.WriteExperiment(rec.Experiment)
			case StreamPoison:
				w.WritePoison(rec.Poison)
			case StreamSeal:
				w.WriteSeal(rec.Seal)
			}
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("decode→encode is not a fixed point")
		}
	})
}

// FuzzWALRecover runs segment recovery over arbitrary bytes behind a
// valid header. It never fails or panics; it keeps exactly the prefix
// InspectSegment frames, truncates the rest, and the truncated file then
// recovers cleanly to the same records.
func FuzzWALRecover(f *testing.F) {
	_, key, fp := legacySegment(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := SegmentPath(dir, key)
		hdr := append(append(append([]byte(nil), walMagic[:]...), key[:]...), binary.LittleEndian.AppendUint64(nil, fp)...)
		if err := os.WriteFile(path, append(hdr, body...), 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := InspectSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		w, rec, err := OpenSectionWAL(dir, key, fp, true)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if rec.TruncatedBytes < info.TailBytes {
			t.Fatalf("recovery truncated %d bytes, %d do not frame", rec.TruncatedBytes, info.TailBytes)
		}
		_, again, err := OpenSectionWAL(dir, key, fp, true)
		if err != nil {
			t.Fatal(err)
		}
		if again.TruncatedBytes != 0 || len(again.Records) != len(rec.Records) || again.Sealed != rec.Sealed {
			t.Fatalf("second recovery: truncated %d, %d records, sealed %v; first: %d records, sealed %v",
				again.TruncatedBytes, len(again.Records), again.Sealed, len(rec.Records), rec.Sealed)
		}
	})
}
