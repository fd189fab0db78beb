// Shard record streaming: the wire format a remote injection worker uses
// to deliver its results back to a distributed coordinator.
//
// The stream reuses the WAL's record framing (internal/record) and payload
// encodings verbatim — u32 payload length, u32 CRC-32C, payload with a
// leading type byte — so a shard stream is literally a headerless WAL
// segment tail.
// A worker emits one experiment or poison frame per completed class,
// flushed eagerly so the coordinator can merge (and durably log)
// incrementally, and terminates a *complete* shard with a seal frame
// carrying the record count. A stream that ends without a seal is
// partial: the coordinator keeps whatever records framed cleanly and
// re-leases the remainder, exactly like WAL torn-tail recovery.
package inject

import (
	"fmt"
	"io"

	"fastflip/internal/record"
)

// Stream record types, aliased from the WAL record types they share the
// encoding with.
const (
	StreamExperiment = walRecExperiment
	StreamPoison     = walRecPoison
	StreamSeal       = walRecSeal
)

// StreamRecord is one decoded record: a shard-stream frame, or a WAL
// segment record when read back by recovery. Type selects which field is
// meaningful.
type StreamRecord struct {
	Type byte
	// Experiment is set for StreamExperiment frames.
	Experiment WALRecord
	// Poison is set for StreamPoison frames.
	Poison WALPoison
	// Seal is the worker's record count, set for StreamSeal frames.
	Seal int
	// Amp and Shard are set for a WAL segment's amplification and shard
	// provenance records, which no shard stream carries.
	Amp   *WALAmp
	Shard WALShard
}

// StreamWriter frames experiment, poison, and seal records onto an
// io.Writer. If the writer exposes a Flush method (http.Flusher or
// bufio.Writer style) each record is flushed as written, so a consumer
// on the other end of a network stream sees records as they complete.
// Not safe for concurrent use; shard workers serialize through it.
type StreamWriter struct {
	w io.Writer
}

// NewStreamWriter returns a writer framing records onto w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w}
}

// WriteExperiment frames one completed experiment.
func (s *StreamWriter) WriteExperiment(rec WALRecord) error {
	return s.writeFrame(appendExperimentPayload(nil, rec))
}

// WritePoison frames one quarantined experiment.
func (s *StreamWriter) WritePoison(p WALPoison) error {
	return s.writeFrame(appendPoisonPayload(nil, p))
}

// WriteSeal terminates a complete shard stream with the count of
// experiment records that preceded it. A reader treats a stream ending
// without a seal as partial.
func (s *StreamWriter) WriteSeal(count int) error {
	return s.writeFrame(appendSealPayload(nil, count))
}

// writeFrame frames and writes one payload. A payload the frame refuses
// (over record.MaxPayload) is an error, not a frame every reader would
// reject.
func (s *StreamWriter) writeFrame(payload []byte) error {
	buf, err := appendFrame(make([]byte, 0, record.HeaderSize+len(payload)), payload)
	if err != nil {
		return fmt.Errorf("inject: stream: %w", err)
	}
	if _, err := s.w.Write(buf); err != nil {
		return fmt.Errorf("inject: stream: %w", err)
	}
	switch f := s.w.(type) {
	case interface{ Flush() }:
		f.Flush()
	case interface{ Flush() error }:
		if err := f.Flush(); err != nil {
			return fmt.Errorf("inject: stream: %w", err)
		}
	}
	return nil
}

// StreamReader decodes shard-stream frames from an io.Reader
// incrementally: each Next blocks until one full frame is available.
type StreamReader struct {
	r *record.Reader
}

// NewStreamReader returns a reader decoding frames from r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: record.NewReader(r)}
}

// Next decodes the next frame. It returns io.EOF at a clean frame
// boundary; a connection cut mid-frame surfaces as io.ErrUnexpectedEOF,
// and a corrupt frame (overlong length, checksum mismatch, short or
// unknown payload) as a descriptive error. Either way the caller treats
// the stream as partial from that point: records already returned remain
// valid — the same keep-the-good-prefix discipline as WAL recovery.
func (s *StreamReader) Next() (StreamRecord, error) {
	payload, err := s.r.Next()
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return StreamRecord{}, err
	}
	if err != nil {
		return StreamRecord{}, fmt.Errorf("inject: stream: %w", err)
	}
	rec, err := parseRecord(payload)
	switch {
	case err != nil:
		return rec, fmt.Errorf("inject: stream: frame type %d: %w", rec.Type, err)
	case rec.Type != StreamExperiment && rec.Type != StreamPoison && rec.Type != StreamSeal:
		return rec, fmt.Errorf("inject: stream: unexpected frame type %d", rec.Type)
	}
	return rec, nil
}
