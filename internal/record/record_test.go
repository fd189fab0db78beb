package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
)

func frames(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		var err error
		if data, err = Append(data, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

func TestAppendNextRoundTrip(t *testing.T) {
	want := []string{"a", "hello", string(make([]byte, 1000))}
	data := frames(t, want...)
	off := 0
	for i, w := range want {
		p, next, ok := Next(data, off)
		if !ok || string(p) != w || next != off+HeaderSize+len(w) {
			t.Fatalf("frame %d: ok=%v next=%d payload %q", i, ok, next, p)
		}
		off = next
	}
	if _, next, ok := Next(data, off); ok || next != off {
		t.Fatalf("past the end: ok=%v next=%d", ok, next)
	}
}

// TestAppendRefuses: a writer refuses exactly the payloads every reader
// rejects.
func TestAppendRefuses(t *testing.T) {
	if out, err := Append([]byte("x"), nil); !errors.Is(err, ErrEmpty) || string(out) != "x" {
		t.Errorf("empty payload: %q, %v", out, err)
	}
	// The allocation is never touched, so it costs no resident memory.
	if _, err := Append(nil, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize payload: %v", err)
	}
}

// TestNextRejects: every way a frame can fail to validate stops the scan.
func TestNextRejects(t *testing.T) {
	good := frames(t, "payload")
	hdr := func(n, sum uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		return binary.LittleEndian.AppendUint32(b, sum)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	cases := map[string]struct {
		data []byte
		off  int
	}{
		"zero length":   {append(hdr(0, 0), 'x'), 0},
		"over bound":    {hdr(MaxPayload+1, 0), 0},
		"overrun":       {good[:len(good)-1], 0},
		"checksum":      {flipped, 0},
		"short header":  {good[:HeaderSize-1], 0},
		"negative off":  {good, -1},
		"off past end":  {good, len(good) + 1},
		"off in header": {good, len(good) - 3},
	}
	for name, c := range cases {
		if p, next, ok := Next(c.data, c.off); ok || p != nil || next != c.off {
			t.Errorf("%s: ok=%v next=%d payload %q", name, ok, next, p)
		}
	}
}

func TestReader(t *testing.T) {
	data := frames(t, "one", "two")
	r := NewReader(bytes.NewReader(data))
	for _, w := range []string{"one", "two"} {
		if p, err := r.Next(); err != nil || string(p) != w {
			t.Fatalf("got %q, %v; want %q", p, err, w)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("at the end: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(data); cut++ {
		if cut == HeaderSize+3 {
			continue // a frame boundary
		}
		r := NewReader(bytes.NewReader(data[:cut]))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[HeaderSize] ^= 1
	if _, err := NewReader(bytes.NewReader(flipped)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload: %v, want ErrCorrupt", err)
	}
	// A hostile length on a short input is a cut stream; the payload is
	// never allocated at the claimed size.
	huge := binary.LittleEndian.AppendUint32(nil, MaxPayload)
	huge = append(huge, 0, 0, 0, 0, 'x')
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewReader(bytes.NewReader(huge)).Next(); err != io.ErrUnexpectedEOF {
			t.Errorf("hostile length: %v", err)
		}
	})
	if allocs > 10 {
		t.Errorf("hostile length: %v allocations", allocs)
	}
	if _, err := NewReader(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, MaxPayload+1))).Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("short header: %v", err)
	}
	over := append(binary.LittleEndian.AppendUint32(nil, MaxPayload+1), 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(over)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("length over the bound: %v, want ErrCorrupt", err)
	}
}

// TestFieldRoundTrip: every field encoder reads back exactly, floats bit
// for bit.
func TestFieldRoundTrip(t *testing.T) {
	key := sites.ClassKey{Static: prog.StaticID{Func: "kernel", Local: -3}, Role: isa.OperandSrcB, Bit: 63}
	out := metrics.Outcome{Kind: metrics.SDC, Reason: metrics.DetectTimeout,
		Magnitudes: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)}}
	mat := [][]float64{{1, math.NaN()}, {-0.5, math.MaxFloat64}}
	b := AppendString(nil, "tenant")
	b = AppendClassKey(b, key)
	b = AppendOutcome(b, out)
	b, err := AppendMatrix(b, mat)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if s := d.Str(); s != "tenant" {
		t.Errorf("string %q", s)
	}
	if k := d.ClassKey(); k != key {
		t.Errorf("key %+v", k)
	}
	gotOut, gotMat := d.Outcome(), d.Matrix()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if gotOut.Kind != out.Kind || gotOut.Reason != out.Reason || len(gotOut.Magnitudes) != len(out.Magnitudes) {
		t.Fatalf("outcome %+v", gotOut)
	}
	for i, m := range out.Magnitudes {
		if math.Float64bits(gotOut.Magnitudes[i]) != math.Float64bits(m) {
			t.Errorf("magnitude %d: %x, want %x", i, math.Float64bits(gotOut.Magnitudes[i]), math.Float64bits(m))
		}
	}
	for i := range mat {
		for j := range mat[i] {
			if math.Float64bits(gotMat[i][j]) != math.Float64bits(mat[i][j]) {
				t.Errorf("cell %d,%d: %v, want %v", i, j, gotMat[i][j], mat[i][j])
			}
		}
	}
}

func TestMatrixShapes(t *testing.T) {
	if _, err := AppendMatrix(nil, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix encoded")
	}
	if _, err := AppendMatrix(nil, make([][]float64, maxEmptyRows+1)); err == nil {
		t.Error("empty-column matrix over the row cap encoded")
	}
	b, err := AppendMatrix(nil, make([][]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m := NewDecoder(b).Matrix(); len(m) != 3 || len(m[0]) != 0 {
		t.Errorf("3x0 matrix read back as %v", m)
	}
	b, _ = AppendMatrix(nil, nil)
	if m := NewDecoder(b).Matrix(); m != nil {
		t.Errorf("empty matrix read back as %v", m)
	}
}

// TestDecoderChecksCounts: a count the payload cannot hold latches
// ErrShort before anything is allocated for it, and the error is sticky.
func TestDecoderChecksCounts(t *testing.T) {
	hostile := [][]byte{
		{0, 0, 0xff, 0xff, 0xff, 0xff},                   // outcome with 2^32-1 magnitudes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // (2^32-1)^2 matrix
		{0xff, 0xff, 0, 0, 0, 0, 0, 0},                   // 65535 empty rows
		{0xff, 0xff, 0xff, 0x7f},                         // string of 2 GiB
	}
	reads := []func(d *Decoder){
		func(d *Decoder) { d.Outcome() },
		func(d *Decoder) { d.Matrix() },
		func(d *Decoder) { d.Matrix() },
		func(d *Decoder) { d.Str() },
	}
	for i, b := range hostile {
		allocs := testing.AllocsPerRun(5, func() {
			d := NewDecoder(b)
			reads[i](d)
			if err := d.Finish(); !errors.Is(err, ErrShort) {
				t.Errorf("case %d: err %v", i, err)
			}
		})
		if allocs > 1 {
			t.Errorf("case %d: %v allocations", i, allocs)
		}
	}
	d := NewDecoder([]byte{1, 2})
	if d.U32() != 0 || d.U8() != 0 || !errors.Is(d.Finish(), ErrShort) {
		t.Error("short read did not latch")
	}
	d = NewDecoder([]byte{1, 2})
	d.U8()
	if !errors.Is(d.Finish(), ErrShort) {
		t.Error("trailing byte accepted")
	}
	if d := NewDecoder([]byte{2}); d.Bool() || d.Finish() == nil {
		t.Error("presence byte 2 accepted")
	}
}

// FuzzFrameNext: no input panics Next, every payload it returns re-frames
// to exactly the bytes it was read from, and the Reader frames the same
// payloads from the same bytes.
func FuzzFrameNext(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		off := 0
		for {
			payload, next, ok := Next(data, off)
			if !ok {
				if next != off {
					t.Fatalf("rejected frame at %d moved the offset to %d", off, next)
				}
				break
			}
			frame, err := Append(nil, payload)
			if err != nil || !bytes.Equal(frame, data[off:next]) {
				t.Fatalf("frame at %d re-frames to %x, read from %x (%v)", off, frame, data[off:next], err)
			}
			if got, err := r.Next(); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Reader at %d: %x, %v; Next: %x", off, got, err, payload)
			}
			off = next
		}
		if _, err := r.Next(); err == nil {
			t.Fatalf("Reader framed past offset %d, where Next stopped", off)
		}
	})
}
