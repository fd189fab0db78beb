// Write-ahead campaign log: crash-safe persistence of per-section
// injection campaigns at experiment granularity.
//
// Each section instance gets one append-only segment file. Every completed
// experiment is appended as a length-prefixed, checksummed record before
// the campaign moves on, so a crash (OOM, eviction, kill -9) loses at most
// the experiments still in flight. When the section's campaign finishes,
// the sensitivity result and a seal record are appended and the segment is
// fsynced — a sealed segment is a complete substitute for re-injecting the
// section.
//
// Segment layout:
//
//	header   magic "FFWAL" + format version, section content key (32 bytes),
//	         campaign config fingerprint (8 bytes)
//	records  record frames (internal/record): u32 payload length,
//	         u32 CRC-32C of payload, payload
//
// Record payloads start with a one-byte type: experiment (class key,
// outcome, optional co-run final outcome, per-experiment cost counters),
// amplification (the section's sensitivity matrix and its cost), and seal
// (the total experiment count, for validation).
//
// Recovery reads records until the first torn or corrupt one — a length
// that overruns the file, or a checksum mismatch — and truncates the file
// there, reporting how many bytes were dropped. A torn tail is therefore
// detected and discarded, never silently merged. A header that fails
// validation (unknown version, different section key or fingerprint)
// invalidates the whole segment: the file is recreated fresh.
//
// All segment I/O flows through the errfs seam, so chaos tests can
// inject EIO/ENOSPC/short writes/failed fsyncs at chosen records.
// Transient write failures are retried under a capped jittered backoff
// (RetryPolicy); a partial append is truncated back to the last good
// record before the retry so the file never accumulates a mid-stream
// tear. A persistent failure latches the segment into a degraded state
// (ErrWALDegraded): further appends are refused immediately, the
// campaign finishes memory-only for this section, and the next section
// re-arms the log by opening a fresh segment.
package inject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fastflip/internal/errfs"
	"fastflip/internal/metrics"
	"fastflip/internal/record"
	"fastflip/internal/sites"
)

// walMagic identifies a WAL segment and its format version. Bump the
// version byte on any incompatible format change; old segments are then
// discarded rather than misparsed.
var walMagic = [8]byte{'F', 'F', 'W', 'A', 'L', 0, 0, 2}

// walHeaderSize is the fixed segment header: magic, section key,
// campaign fingerprint.
const walHeaderSize = len(walMagic) + 32 + 8

// Record payload types.
const (
	walRecExperiment = byte(1)
	walRecAmp        = byte(2)
	walRecSeal       = byte(3)
	walRecPoison     = byte(4)
	walRecShard      = byte(5)
)

// maxPoisonStack bounds the stack trace stored in a poison record.
const maxPoisonStack = 8 << 10

// ErrWALDegraded marks a section WAL that hit a persistent write failure
// and latched itself off. Appends return it immediately; the analysis
// continues memory-only for the section and the campaign reports
// Summary.WALDegraded instead of aborting.
var ErrWALDegraded = errors.New("inject: wal degraded")

// appendFrame frames a record payload for the WAL and the shard stream.
// Tests swap it to lower the payload bound (export_test.go).
var appendFrame = record.Append

// WALRecord is one logged experiment: the equivalence class injected, its
// outcome(s), and the cost the engine accounted for it.
type WALRecord struct {
	Key sites.ClassKey
	Out metrics.Outcome
	// Fin is the co-run end-to-end outcome; nil outside co-run campaigns.
	Fin *metrics.Outcome
	// Cost is this experiment's share of the campaign stats
	// (Cost.Experiments is always 1).
	Cost Stats
}

// WALAmp is the logged sensitivity result of a completed section.
type WALAmp struct {
	K         [][]float64
	Runs      int
	SimInstrs uint64
}

// WALPoison is the logged quarantine of an experiment that panicked on
// both attempts: its class, how often it was tried, a fingerprint of the
// experiment machine at the second panic, and the captured stack.
type WALPoison struct {
	Key       sites.ClassKey
	Attempts  int
	MachineFP uint64
	Stack     string
}

// WALShard is the provenance of one merged shard: which worker executed a
// range of the campaign's dyn-sorted experiment order, under which lease
// epoch, and how many records it delivered. Coordinators append one per
// merged shard stream so `fasm -wal-info` can attribute a campaign's
// records to the fleet that produced them.
type WALShard struct {
	// Worker is the self-reported ID of the remote injector.
	Worker string
	// Epoch is the lease epoch the shard ran under; a range re-leased
	// after a worker loss carries a higher epoch than the lost lease.
	Epoch uint64
	// Lo, Hi bound the shard's dyn-order positions [Lo, Hi).
	Lo, Hi int
	// Records is the number of experiment records merged from the shard.
	Records int
}

// Recovered is what OpenSectionWAL salvaged from an existing segment.
type Recovered struct {
	// Records maps class keys to their logged experiments.
	Records map[sites.ClassKey]WALRecord
	// Amp is the logged sensitivity result, nil if the crash preceded it.
	Amp *WALAmp
	// Poisoned holds the quarantine diagnostics of experiments that
	// panicked twice in a previous run. They carry no outcome: resume
	// re-executes their classes.
	Poisoned []WALPoison
	// Shards holds the provenance records of shards merged by a
	// distributed coordinator in a previous run (informational; they gate
	// nothing on resume).
	Shards []WALShard
	// Sealed reports a complete section campaign: outcomes, amplification,
	// and the seal record all present and consistent.
	Sealed bool
	// TruncatedBytes counts the torn/corrupt tail bytes dropped during
	// recovery (0 for a clean segment).
	TruncatedBytes int64

	// validSize is the byte length of the well-formed prefix, where
	// appends continue.
	validSize int64
}

// SectionWAL is an open append handle for one section's segment. Append,
// AppendAmp, AppendPoison, and Seal are safe for concurrent use by
// injection workers.
type SectionWAL struct {
	mu     sync.Mutex
	fs     errfs.FS
	retry  RetryPolicy
	f      errfs.File
	path   string
	off    int64 // end of the last well-formed record on disk
	count  int   // experiment records in the file
	sealed bool
	cause  error // non-nil once the segment degraded; latches
}

// WALOptions configure a section WAL's I/O behavior: the filesystem seam
// chaos tests inject faults through, and the retry policy for transient
// write failures. The zero value uses the real filesystem and default
// backoff.
type WALOptions struct {
	FS    errfs.FS
	Retry RetryPolicy
}

// SegmentPath returns the segment file path for a section content key.
func SegmentPath(dir string, key [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("%x.wal", key))
}

// oldLedger is the campaign manifest that older builds kept beside the
// segments. Nothing reads it: the segments are the whole resume state.
const oldLedger = "campaign.manifest"

// SweepSegments readies a campaign directory before its sections open;
// the caller must hold the campaign's lock. Without resume it removes
// every segment. With resume it removes only the segments whose header
// does not carry fingerprint in this format version, so what remains is
// exactly what this campaign's sections may recover. In both modes it
// removes the temporary files of an errfs.ReplaceFile that a crash cut
// short, and the manifest of older builds. Files it does not know (the
// lock) stay. It returns the number of segments removed.
func SweepSegments(fsys errfs.FS, dir string, fingerprint uint64, resume bool) (int, error) {
	if fsys == nil {
		fsys = errfs.OS()
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("inject: wal sweep: %w", err)
	}
	removed := 0
	for _, e := range entries {
		name, path := e.Name(), filepath.Join(dir, e.Name())
		segment := strings.HasSuffix(name, ".wal")
		switch {
		case segment:
			if resume && !foreignSegment(fsys, path, fingerprint) {
				continue
			}
		case name == oldLedger, strings.HasPrefix(name, ".") && strings.HasSuffix(name, ".tmp"):
		default:
			continue
		}
		if err := fsys.Remove(path); err != nil {
			return removed, fmt.Errorf("inject: wal sweep: %w", err)
		}
		if segment {
			removed++
		}
	}
	return removed, nil
}

// foreignSegment reports whether the segment at path provably belongs to
// another campaign: its header is short, from another format version, or
// carries another fingerprint. A header that cannot be read now is not
// foreign; recovery judges it when its section opens.
func foreignSegment(fsys errfs.FS, path string, fingerprint uint64) bool {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	}
	return [len(walMagic)]byte(hdr[:len(walMagic)]) != walMagic ||
		binary.LittleEndian.Uint64(hdr[len(walMagic)+32:]) != fingerprint
}

// OpenSectionWAL opens (or creates) the WAL segment for the section with
// the given content key. With resume set, an existing valid segment is
// recovered first and appends continue behind the recovered records; the
// returned Recovered reports what was salvaged and whether a torn tail was
// truncated. Without resume, or when the existing segment's header does
// not match (different format version, section key, or campaign
// fingerprint), the segment is recreated empty.
func OpenSectionWAL(dir string, key [32]byte, fingerprint uint64, resume bool) (*SectionWAL, *Recovered, error) {
	return OpenSectionWALOpts(dir, key, fingerprint, resume, WALOptions{})
}

// OpenSectionWALOpts is OpenSectionWAL with explicit I/O options.
func OpenSectionWALOpts(dir string, key [32]byte, fingerprint uint64, resume bool, opts WALOptions) (*SectionWAL, *Recovered, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = errfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("inject: wal: %w", err)
	}
	path := SegmentPath(dir, key)
	var rec *Recovered
	if resume {
		r, err := recoverSegment(fsys, path, key, fingerprint)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		rec = r
	}
	if rec == nil {
		if err := writeSegmentHeader(fsys, path, key, fingerprint); err != nil {
			return nil, nil, err
		}
		rec = &Recovered{Records: map[sites.ClassKey]WALRecord{}, validSize: int64(walHeaderSize)}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("inject: wal: %w", err)
	}
	w := &SectionWAL{
		fs:     fsys,
		retry:  opts.Retry,
		f:      f,
		path:   path,
		off:    rec.validSize,
		count:  len(rec.Records),
		sealed: rec.Sealed,
	}
	return w, rec, nil
}

// writeSegmentHeader (re)creates the segment with just a synced header.
func writeSegmentHeader(fsys errfs.FS, path string, key [32]byte, fingerprint uint64) error {
	hdr := append(append(walMagic[:len(walMagic):len(walMagic)], key[:]...), binary.LittleEndian.AppendUint64(nil, fingerprint)...)
	if err := errfs.ReplaceFile(fsys, path, hdr); err != nil {
		return fmt.Errorf("inject: wal: %w", err)
	}
	return nil
}

// Append logs one completed experiment. The record is durable against
// process death as soon as Append returns (it is written with a single
// write syscall); durability against machine crash is established by the
// fsync in Seal.
func (w *SectionWAL) Append(rec WALRecord) error {
	payload := appendExperimentPayload(nil, rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	w.count++
	return nil
}

// AppendAmp logs the section's sensitivity result. A ragged matrix
// cannot be encoded and degrades the segment like a failed write.
func (w *SectionWAL) AppendAmp(a WALAmp) error {
	payload, err := appendAmpPayload(nil, a)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		return w.degrade(fmt.Errorf("inject: wal %s: %w", w.path, err))
	}
	return w.writeRecord(payload)
}

// AppendPoison logs the quarantine diagnostics of an experiment that
// panicked twice. The record carries no outcome — a resume re-executes
// the class — it preserves the stack and machine fingerprint for
// post-mortem inspection via `fasm -wal-info`.
func (w *SectionWAL) AppendPoison(p WALPoison) error {
	payload := appendPoisonPayload(nil, p)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeRecord(payload)
}

// AppendShard logs the provenance of a merged shard stream: which worker
// delivered which range of the campaign under which lease epoch. Purely
// informational — recovery collects but never validates these.
func (w *SectionWAL) AppendShard(s WALShard) error {
	payload := appendShardPayload(nil, s)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeRecord(payload)
}

// Seal marks the section campaign complete and fsyncs the segment — the
// "segment roll": after Seal returns, the section's results survive a
// machine crash, and resume will reconstruct the section without
// re-injecting anything.
func (w *SectionWAL) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	before := w.off
	if err := w.writeRecord(appendSealPayload(nil, w.count)); err != nil {
		return err
	}
	if err := w.retry.Do(w.f.Sync); err != nil {
		// The seal record landed in the file but never reached the disk.
		// Cut it back off (best effort) so recovery sees an honest
		// unsealed segment rather than a seal with no durability behind
		// it.
		if w.fs.Truncate(w.path, before) == nil {
			w.off = before
		}
		return w.degrade(fmt.Errorf("inject: wal %s: seal sync: %w", w.path, err))
	}
	w.sealed = true
	return nil
}

// Degraded reports whether the segment latched off after a persistent
// write failure.
func (w *SectionWAL) Degraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cause != nil
}

// Close fsyncs the durable prefix and releases the file handle without
// sealing. The sync makes an interrupted campaign's records survive a
// machine crash too, and guarantees a drained service leaves no segment
// with an unflushed tail. Sync errors are swallowed: the handle is being
// released, there is nothing left to degrade.
func (w *SectionWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cause == nil {
		_ = w.f.Sync()
	}
	return w.f.Close()
}

// degrade latches the segment off and returns the wrapped sentinel.
func (w *SectionWAL) degrade(cause error) error {
	if w.cause == nil {
		w.cause = cause
	}
	return fmt.Errorf("%w: %v", ErrWALDegraded, w.cause)
}

// writeRecord frames and writes one payload under w.mu, retrying
// transient failures with backoff. A partial append is truncated back to
// the last good record before the retry, so the segment never carries a
// mid-stream tear; if that truncation itself fails, the failure is
// permanent. Once the retries are exhausted the segment degrades: the
// error is latched and every further write is refused immediately with
// ErrWALDegraded. A payload the frame refuses (over record.MaxPayload)
// degrades the segment at once: recovery would drop it and every record
// after it.
func (w *SectionWAL) writeRecord(payload []byte) error {
	if w.cause != nil {
		return fmt.Errorf("%w: %v", ErrWALDegraded, w.cause)
	}
	buf, err := appendFrame(make([]byte, 0, record.HeaderSize+len(payload)), payload)
	if err != nil {
		return w.degrade(fmt.Errorf("inject: wal %s: %w", w.path, err))
	}
	err = w.retry.Do(func() error {
		n, werr := w.f.Write(buf)
		if werr == nil && n != len(buf) {
			werr = io.ErrShortWrite
		}
		if werr == nil {
			return nil
		}
		if n > 0 {
			// The failed write left partial bytes behind. Cut the file
			// back to the last good record so the retry appends at a
			// clean boundary; a recovery that races in meanwhile would
			// discard the fragment as a torn tail either way.
			if terr := w.fs.Truncate(w.path, w.off); terr != nil {
				return permanent(fmt.Errorf("%v (truncating partial append: %v)", werr, terr))
			}
		}
		return werr
	})
	if err != nil {
		return w.degrade(fmt.Errorf("inject: wal %s: %w", w.path, err))
	}
	w.off += int64(len(buf))
	return nil
}

// recoverSegment reads an existing segment. It returns nil (no error) when
// the header is invalid or mismatched — the segment belongs to a different
// format, section, or campaign and must be recreated. A torn or corrupt
// record tail is truncated off the file and counted in TruncatedBytes.
func recoverSegment(fsys errfs.FS, path string, key [32]byte, fingerprint uint64) (*Recovered, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)+32]) != string(walMagic[:])+string(key[:]) ||
		binary.LittleEndian.Uint64(data[len(walMagic)+32:]) != fingerprint {
		return nil, nil
	}
	rec := scanSegment(data)
	if rec.TruncatedBytes > 0 {
		if err := fsys.Truncate(path, rec.validSize); err != nil {
			return rec, fmt.Errorf("inject: wal %s: truncating torn tail: %w", path, err)
		}
	}
	return rec, nil
}

// scanSegment decodes the records behind a segment header up to the first
// frame that does not validate or payload that does not decode — a length
// that overruns the file, a checksum mismatch, or a structurally corrupt
// payload behind a matching checksum. Everything from there on is the
// torn tail.
func scanSegment(data []byte) *Recovered {
	rec := &Recovered{Records: map[sites.ClassKey]WALRecord{}}
	sealCount, off := -1, walHeaderSize
	for {
		payload, next, ok := record.Next(data, off)
		if !ok {
			break
		}
		r, err := parseRecord(payload)
		if err != nil {
			break
		}
		switch r.Type {
		case walRecExperiment:
			rec.Records[r.Experiment.Key] = r.Experiment
		case walRecAmp:
			rec.Amp = r.Amp
		case walRecPoison:
			rec.Poisoned = append(rec.Poisoned, r.Poison)
		case walRecShard:
			rec.Shards = append(rec.Shards, r.Shard)
		case walRecSeal:
			sealCount = r.Seal
		}
		off = next
	}
	rec.validSize = int64(off)
	rec.TruncatedBytes = int64(len(data) - off)
	rec.Sealed = sealCount >= 0 && sealCount == len(rec.Records) && rec.Amp != nil
	return rec
}

// SegmentInfo is a read-only description of one WAL segment, taken without
// validating it against any campaign (no key or fingerprint check) — the
// view `fasm -wal-info` prints when debugging a crashed campaign.
type SegmentInfo struct {
	Key         [32]byte
	Version     byte
	Fingerprint uint64
	Experiments int
	HasAmp      bool
	Sealed      bool
	// Poisoned counts quarantined-experiment records: injections that
	// panicked twice and were logged with diagnostics instead of an
	// outcome.
	Poisoned int
	// Shards holds the provenance of shard streams a distributed
	// coordinator merged into this segment: originating worker ID, lease
	// epoch, dyn-order range, and record count.
	Shards []WALShard
	// TailBytes counts trailing bytes that do not frame as complete,
	// checksummed records — the torn tail a resume would truncate.
	TailBytes int64
}

// InspectSegment reads a segment's header and record stream without
// modifying the file. Unlike recovery it accepts any section key and
// fingerprint, but still requires the magic and format version.
func InspectSegment(path string) (SegmentInfo, error) {
	var info SegmentInfo
	data, err := os.ReadFile(path)
	if err != nil {
		return info, err
	}
	if len(data) < walHeaderSize || string(data[:len(walMagic)-1]) != string(walMagic[:len(walMagic)-1]) {
		return info, fmt.Errorf("inject: wal %s: not a WAL segment", path)
	}
	info.Version = data[len(walMagic)-1]
	copy(info.Key[:], data[len(walMagic):])
	info.Fingerprint = binary.LittleEndian.Uint64(data[len(walMagic)+32:])
	if info.Version != walMagic[len(walMagic)-1] {
		return info, fmt.Errorf("inject: wal %s: unknown format version %d", path, info.Version)
	}
	rec := scanSegment(data)
	info.Experiments, info.HasAmp, info.Sealed = len(rec.Records), rec.Amp != nil, rec.Sealed
	info.Poisoned, info.Shards, info.TailBytes = len(rec.Poisoned), rec.Shards, rec.TruncatedBytes
	return info, nil
}

// --- payload encoding -------------------------------------------------

func appendExperimentPayload(buf []byte, rec WALRecord) []byte {
	buf = append(buf, walRecExperiment)
	buf = record.AppendClassKey(buf, rec.Key)
	buf = record.AppendOutcome(buf, rec.Out)
	if rec.Fin != nil {
		buf = append(buf, 1)
		buf = record.AppendOutcome(buf, *rec.Fin)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.SimInstrs)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.CleanInstrs)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.FaultyInstrs)
	// v2: how the experiment was executed. Elision and batching are
	// outcome-neutral, but a resumed campaign must re-account recovered
	// records at their original cost shares so merged summaries stay
	// identical to an uninterrupted run.
	var flags byte
	if rec.Cost.ElidedExperiments > 0 {
		flags |= walFlagElided
	}
	if rec.Cost.BatchExperiments > 0 {
		flags |= walFlagBatched
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Cost.ElidedInstrs)
	return buf
}

// Experiment-record execution flags (WAL format v2).
const (
	walFlagElided  = byte(1 << 0)
	walFlagBatched = byte(1 << 1)
)

// parseRecord decodes one record payload: a type byte, then the body that
// type names. The WAL, its inspection and the shard stream all read
// records through it.
func parseRecord(payload []byte) (StreamRecord, error) {
	rec := StreamRecord{Type: payload[0]}
	d := record.NewDecoder(payload[1:])
	switch rec.Type {
	case walRecExperiment:
		rec.Experiment = readExperiment(d)
	case walRecAmp:
		rec.Amp = &WALAmp{K: d.Matrix(), Runs: int(d.U64()), SimInstrs: d.U64()}
	case walRecPoison:
		rec.Poison = WALPoison{Key: d.ClassKey(), Attempts: int(d.U32()), MachineFP: d.U64(), Stack: d.Str()}
	case walRecShard:
		rec.Shard = WALShard{Worker: d.Str(), Epoch: d.U64(), Lo: int(d.U32()), Hi: int(d.U32()), Records: int(d.U32())}
	case walRecSeal:
		rec.Seal = int(d.U32())
	default:
		return rec, fmt.Errorf("inject: unknown record type %d", rec.Type)
	}
	return rec, d.Finish()
}

func readExperiment(d *record.Decoder) WALRecord {
	rec := WALRecord{Key: d.ClassKey(), Out: d.Outcome()}
	if d.Bool() {
		fin := d.Outcome()
		rec.Fin = &fin
	}
	rec.Cost = Stats{Experiments: 1, SimInstrs: d.U64(), CleanInstrs: d.U64(), FaultyInstrs: d.U64()}
	flags := d.U8()
	rec.Cost.ElidedInstrs = d.U64()
	if flags&walFlagElided != 0 {
		rec.Cost.ElidedExperiments = 1
	}
	if flags&walFlagBatched != 0 {
		rec.Cost.BatchExperiments = 1
	}
	return rec
}

func appendAmpPayload(buf []byte, a WALAmp) ([]byte, error) {
	buf, err := record.AppendMatrix(append(buf, walRecAmp), a.K)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.Runs))
	return binary.LittleEndian.AppendUint64(buf, a.SimInstrs), err
}

func appendPoisonPayload(buf []byte, p WALPoison) []byte {
	buf = append(buf, walRecPoison)
	buf = record.AppendClassKey(buf, p.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Attempts))
	buf = binary.LittleEndian.AppendUint64(buf, p.MachineFP)
	return record.AppendString(buf, p.Stack[:min(len(p.Stack), maxPoisonStack)])
}

func appendShardPayload(buf []byte, s WALShard) []byte {
	buf = record.AppendString(append(buf, walRecShard), s.Worker)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Hi))
	return binary.LittleEndian.AppendUint32(buf, uint32(s.Records))
}

func appendSealPayload(buf []byte, count int) []byte {
	return binary.LittleEndian.AppendUint32(append(buf, walRecSeal), uint32(count))
}
