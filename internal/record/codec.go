package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
)

// ErrShort marks a payload that ends early, carries bytes past its last
// field, or claims more elements than it has bytes for.
var ErrShort = errors.New("record: short or malformed payload")

// maxEmptyRows caps the rows of a matrix with no columns. Such a matrix
// (a section with outputs but no inputs) spends no bytes on its rows, so
// their count cannot be checked against the bytes left; the cap keeps
// what a hostile count can allocate small.
const maxEmptyRows = 1 << 10

// AppendString appends s as a u32 length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendClassKey appends an equivalence-class key: its function name as
// a string, the instruction's local index, the operand role and the bit.
func AppendClassKey(dst []byte, k sites.ClassKey) []byte {
	dst = AppendString(dst, k.Static.Func)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k.Static.Local))
	return append(dst, byte(k.Role), k.Bit)
}

// AppendOutcome appends an outcome: kind, reason, and the magnitudes as
// raw float64 bits, so ±Inf, NaN payloads and −0 survive exactly.
func AppendOutcome(dst []byte, o metrics.Outcome) []byte {
	dst = append(dst, byte(o.Kind), byte(o.Reason))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Magnitudes)))
	for _, m := range o.Magnitudes {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m))
	}
	return dst
}

// AppendMatrix appends a rectangular matrix as u32 rows, u32 columns and
// the cells row by row as raw float64 bits. A ragged matrix, or an
// empty-column one with more rows than a reader accepts, is an error.
func AppendMatrix(dst []byte, m [][]float64) ([]byte, error) {
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
	}
	if cols == 0 && len(m) > maxEmptyRows {
		return dst, fmt.Errorf("record: matrix with %d empty rows, at most %d", len(m), maxEmptyRows)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	for i, row := range m {
		if len(row) != cols {
			return dst, fmt.Errorf("record: ragged matrix: row %d has %d columns, row 0 has %d", i, len(row), cols)
		}
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// Decoder reads the fields of one payload. Errors are sticky: after the
// first field that does not fit, every read returns a zero value and
// Finish reports ErrShort, so a parser reads all its fields and checks
// once.
// Every element count is checked against the bytes left before anything
// is allocated for it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{b: payload} }

// Finish reports the first decoding failure, or ErrShort if bytes are
// left over after the last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = ErrShort
	}
	return d.err
}

// fits reports whether n elements of size bytes each are left, latching
// ErrShort when not.
func (d *Decoder) fits(n, size uint64) bool {
	if d.err != nil || n > uint64(len(d.b))/size {
		d.err = ErrShort
		return false
	}
	return true
}

// Bytes returns the next n bytes, aliasing the payload.
func (d *Decoder) Bytes(n int) []byte {
	if n < 0 || !d.fits(uint64(n), 1) {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// zeros stands in for a fixed-width field that is not there.
var zeros [8]byte

// fixed returns the next n bytes (n ≤ 8), or n zero bytes once decoding
// failed.
func (d *Decoder) fixed(n int) []byte {
	if b := d.Bytes(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8, U32 and U64 read a byte and little-endian integers.
func (d *Decoder) U8() byte    { return d.fixed(1)[0] }
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

// Bool reads a presence byte written as 0 or 1; any other value is
// malformed.
func (d *Decoder) Bool() bool {
	b := d.U8()
	if b > 1 {
		d.err = ErrShort
	}
	return b == 1
}

// Float reads a float64 from its raw bits.
func (d *Decoder) Float() float64 { return math.Float64frombits(d.U64()) }

// Str reads a string written by AppendString.
func (d *Decoder) Str() string { return string(d.Bytes(int(d.U32()))) }

// ClassKey reads a key written by AppendClassKey.
func (d *Decoder) ClassKey() sites.ClassKey {
	var k sites.ClassKey
	k.Static.Func = d.Str()
	k.Static.Local = int(int32(d.U32()))
	k.Role = isa.OperandRole(d.U8())
	k.Bit = d.U8()
	return k
}

// Count reads a u32 element count and checks that that many elements of
// at least minSize bytes each fit in the bytes left; a count that does
// not fit latches ErrShort and reads as 0.
func (d *Decoder) Count(minSize int) int {
	if n := uint64(d.U32()); d.fits(n, uint64(max(minSize, 1))) {
		return int(n)
	}
	return 0
}

// Outcome reads an outcome written by AppendOutcome.
func (d *Decoder) Outcome() metrics.Outcome {
	o := metrics.Outcome{Kind: metrics.OutcomeKind(d.U8()), Reason: metrics.DetectReason(d.U8())}
	if n := d.Count(8); n > 0 {
		o.Magnitudes = make([]float64, n)
		for i := range o.Magnitudes {
			o.Magnitudes[i] = d.Float()
		}
	}
	return o
}

// Matrix reads a matrix written by AppendMatrix; zero rows read as nil.
func (d *Decoder) Matrix() [][]float64 {
	rows, cols := uint64(d.U32()), uint64(d.U32())
	if cols == 0 && rows > maxEmptyRows || cols > 0 && !d.fits(rows*cols, 8) {
		d.err = ErrShort
	}
	if rows == 0 || d.err != nil {
		return nil
	}
	m := make([][]float64, rows)
	cells := make([]float64, rows*cols)
	for i := range m {
		m[i] = cells[uint64(i)*cols : uint64(i+1)*cols : uint64(i+1)*cols]
		for j := range m[i] {
			m[i][j] = d.Float()
		}
	}
	return m
}
