package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fastflip/internal/errfs"
	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
)

func codecSection() *Section {
	return &Section{
		Outcomes: map[sites.ClassKey]Outcome{
			{Static: prog.StaticID{Func: "f", Local: 3}, Role: isa.OperandDst, Bit: 17}: {
				Kind: metrics.SDC, Magnitudes: []float64{math.Inf(-1), math.Copysign(0, -1), math.NaN()},
			},
		},
		Final:     map[sites.ClassKey]Outcome{},
		Amp:       [][]float64{{1, 2}, {3, math.Inf(1)}},
		SimInstrs: 99,
	}
}

// TestSectionCodec: a section reads back bit for bit, with nil and empty
// Final kept apart.
func TestSectionCodec(t *testing.T) {
	for _, final := range []map[sites.ClassKey]Outcome{nil, {}} {
		sec := codecSection()
		sec.Final = final
		b, err := AppendSection(nil, sec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSection(b)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Final == nil) != (final == nil) {
			t.Errorf("Final nil=%v read back nil=%v", final == nil, got.Final == nil)
		}
		if !sameSection(got, sec) {
			t.Errorf("read back %+v, want %+v", got, sec)
		}
		if _, err := DecodeSection(append(b, 0)); err == nil {
			t.Error("trailing byte accepted")
		}
	}
	sec := codecSection()
	sec.Amp = [][]float64{{1, 2}, {3}}
	if _, err := AppendSection(nil, sec); err == nil {
		t.Error("ragged Amp encoded")
	}
	s := New()
	s.Put(Key{1}, sec)
	if err := s.Save(filepath.Join(t.TempDir(), "s.ffs")); err == nil {
		t.Error("store with a ragged Amp saved")
	}
}

// TestGobStoreFileRejected: a store file written in the gob format used
// before the binary one fails to load with an error naming the format.
func TestGobStoreFileRejected(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "v1.ffs"))
	if err == nil || !strings.Contains(err.Error(), "not a store file of format") || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("gob store file: %v", err)
	}
}

// TestStoreFileTornTailFails: a store file whose last record is torn
// fails to load rather than silently losing sections.
func TestStoreFileTornTailFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ffs")
	s := New()
	s.Put(Key{1}, codecSection())
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("torn store file: %v", err)
	}
}

// TestReplaceFaultsKeepOldFile fails the sync and the rename of the
// atomic replace behind the store file through errfs: the save returns
// the error, the old file stays byte-identical, and no temporary file is
// left behind.
func TestReplaceFaultsKeepOldFile(t *testing.T) {
	eio := errors.New("injected: EIO")
	save := func(fsys errfs.FS, path string, gen int) error {
		s := New()
		s.Put(Key{byte(gen)}, codecSection())
		return s.SaveFS(fsys, path)
	}
	for _, op := range []errfs.Op{errfs.OpSync, errfs.OpRename} {
		t.Run("store/"+op.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "file")
			if err := save(nil, path, 1); err != nil {
				t.Fatal(err)
			}
			old, _ := os.ReadFile(path)
			ffs := errfs.Wrap(nil, errfs.FailNth(op, 1, eio))
			if err := save(ffs, path, 2); !errors.Is(err, eio) {
				t.Fatalf("save through a failing %s: %v", op, err)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
				t.Fatal("old file changed")
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("directory holds %d entries, want only the file", len(entries))
			}
		})
	}
}

// FuzzDecodeSection: no input panics the decoder, a decoded section
// re-encodes to bytes that decode to the same encoding (decode→encode→
// decode is a fixed point), and decoding allocates at most a constant
// multiple of the input length.
func FuzzDecodeSection(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sec, err := DecodeSection(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		once, err := AppendSection(nil, sec)
		if err != nil {
			t.Fatalf("re-encoding a decoded section: %v", err)
		}
		again, err := DecodeSection(once)
		if err != nil {
			t.Fatalf("re-encoded section does not decode: %v", err)
		}
		twice, _ := AppendSection(nil, again)
		if len(twice) != len(once) {
			t.Fatalf("re-encoded lengths %d and %d", len(once), len(twice))
		}
		if !sameSection(sec, again) {
			t.Fatal("decode→encode→decode changed the section")
		}
	})
}

// sameSection compares two sections bit for bit, nil and empty Final
// apart.
func sameSection(a, b *Section) bool {
	if a.SimInstrs != b.SimInstrs || (a.Final == nil) != (b.Final == nil) || len(a.Amp) != len(b.Amp) {
		return false
	}
	sameFloats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for _, pair := range [][2]map[sites.ClassKey]Outcome{{a.Outcomes, b.Outcomes}, {a.Final, b.Final}} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for k, x := range pair[0] {
			y, ok := pair[1][k]
			if !ok || x.Kind != y.Kind || x.Reason != y.Reason || !sameFloats(x.Magnitudes, y.Magnitudes) {
				return false
			}
		}
	}
	for i := range a.Amp {
		if !sameFloats(a.Amp[i], b.Amp[i]) {
			return false
		}
	}
	return true
}
