// Package record owns the one framing rule every persisted or streamed
// record in FastFlip follows, and the binary field encodings their
// payloads are built from.
//
// A frame is
//
//	u32 payload length, u32 CRC-32C (Castagnoli) of the payload, payload
//
// little-endian, with a payload of 1..MaxPayload bytes. WAL segments,
// shard streams, shared-tier segments, the tier's index checkpoint and
// the store file are all sequences of such frames (behind a file-specific
// header where the format has one).
//
// Reading stops at the first frame that does not validate: a length of
// zero or beyond MaxPayload, a frame that overruns the data, or a
// checksum mismatch. Everything after an undetected tear cannot be
// trusted to be framed correctly, so no reader resynchronizes. What to do
// with the tail is the caller's policy: the WAL truncates it, the shared
// tier counts it corrupt, a shard stream keeps the prefix, and the store
// file refuses to load.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxPayload bounds one frame's payload. Writers refuse a larger payload
// and readers reject a frame that claims one, so a corrupt length prefix
// cannot trigger a huge allocation.
const MaxPayload = 1 << 26

// HeaderSize is the frame overhead in front of every payload.
const HeaderSize = 8

// ErrTooLarge is returned by Append for a payload over MaxPayload.
var ErrTooLarge = errors.New("record: payload exceeds MaxPayload")

// ErrEmpty is returned by Append for an empty payload, which no reader
// accepts.
var ErrEmpty = errors.New("record: empty payload")

// ErrCorrupt is returned by Reader.Next for a frame whose length or
// checksum does not validate.
var ErrCorrupt = errors.New("record: corrupt frame")

var table = crc32.MakeTable(crc32.Castagnoli)

// Append appends the frame of payload to dst.
func Append(dst, payload []byte) ([]byte, error) {
	switch {
	case len(payload) == 0:
		return dst, ErrEmpty
	case len(payload) > MaxPayload:
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, table))
	return append(dst, payload...), nil
}

// Next frames the record at off in data. It reports ok false at the end
// of data and at the first frame that does not validate; next is the
// offset of the following frame.
func Next(data []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || off > len(data)-HeaderSize {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n == 0 || n > MaxPayload || n > len(data)-off-HeaderSize {
		return nil, off, false
	}
	payload = data[off+HeaderSize : off+HeaderSize+n]
	if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(data[off+4:]) {
		return nil, off, false
	}
	return payload, off + HeaderSize + n, true
}

// Reader frames records from an io.Reader, one frame per Next.
type Reader struct {
	r   io.Reader
	hdr [HeaderSize]byte
}

// NewReader returns a Reader framing records from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads the next frame and returns its payload. It returns io.EOF
// at a clean frame boundary, io.ErrUnexpectedEOF when the input ends
// inside a frame, and an error wrapping ErrCorrupt for a frame whose
// length or checksum does not validate. The payload is only allocated as
// its bytes arrive, so a hostile length costs no more memory than the
// input actually carries.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err != io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(r.hdr[:4]))
	if n == 0 || n > MaxPayload {
		return nil, fmt.Errorf("%w: length %d", ErrCorrupt, n)
	}
	payload, err := io.ReadAll(io.LimitReader(r.r, n))
	if err != nil || int64(len(payload)) != n {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(r.hdr[4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}
