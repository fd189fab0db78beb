// Package ostore is the shared, disk-backed, content-addressed outcome
// tier: the §4.7 reuse economy generalized across users, processes, and
// program versions. A section's analysis is named by its content key
// (store.KeyFor), so *any* tenant submitting *any* variant of *any*
// benchmark reuses every section anyone has ever analyzed. It is the
// service's only result cache: one ffserved process, or a whole fleet
// sharing a directory.
//
// On-disk layout (one directory, shared by any number of processes):
//
//	seg-*.ffo   immutable segment files: a header followed by
//	            length-prefixed, CRC-32C-checksummed records, each a
//	            gob-encoded store.Section with its key and publishing
//	            tenant. Segments are published atomically (written to a
//	            temp file, synced, renamed), so a reader never observes
//	            a half-written segment under normal operation.
//	index.ffi   checkpoint of the in-memory index (key → segment/offset
//	            plus the byte size of every segment it accounts for),
//	            CRC-framed and atomically replaced. Purely an
//	            accelerator: a missing or corrupt checkpoint falls back
//	            to scanning every segment, so a flipped index byte can
//	            cost reuse, never correctness.
//
// Writers never append to a published segment: each Flush seals the
// sections staged since the last one into a fresh segment file with a
// unique name, which is what makes concurrent publishes from independent
// Manager processes safe — the only shared mutable file is the index
// checkpoint, and that is advisory. Readers pick up other writers'
// segments lazily: a lookup that misses the in-memory index rescans the
// directory for new or regrown segment files before reporting a miss.
//
// All file content I/O flows through the errfs seam so chaos tests can
// break any step of the publish protocol; directory listing is not a
// fault point and uses the real filesystem.
//
// A store opened without a directory is memory-only: it touches no file,
// and Flush moves the staged sections into the decoded LRU, which is then
// the whole store. A section evicted from it is simply a miss.
package ostore

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fastflip/internal/errfs"
	"fastflip/internal/sites"
	"fastflip/internal/store"
)

// segMagic identifies a segment file and its format version; bump the
// version byte on any incompatible change so old files are skipped, not
// misparsed.
var segMagic = [8]byte{'F', 'F', 'O', 'S', 'G', 0, 0, 1}

// indexMagic identifies the index checkpoint file.
var indexMagic = [8]byte{'F', 'F', 'O', 'I', 'X', 0, 0, 1}

// maxRecordBytes bounds one record so a corrupt length prefix cannot
// trigger a huge allocation during a scan.
const maxRecordBytes = 1 << 26

// crcTable is the Castagnoli polynomial, as used by the WAL.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("ostore: store closed")

// Options configure a shared outcome store. The zero value gets sensible
// defaults.
type Options struct {
	// Dir is the shared directory, created if missing. Empty means
	// memory-only: no file is read or written, the decoded LRU bounded by
	// MaxCacheBytes holds every live section, and TenantQuotaBytes is
	// ignored.
	Dir string
	// FS routes all file content I/O; nil uses the real filesystem.
	// Chaos tests inject publish faults through it.
	FS errfs.FS
	// MaxCacheBytes bounds the in-memory LRU of decoded sections,
	// measured in encoded payload bytes, estimated without encoding in a
	// memory-only store (default 64 MiB; negative disables caching, which
	// leaves a memory-only store empty).
	MaxCacheBytes int64
	// TenantQuotaBytes bounds the live on-disk bytes attributed to any
	// one publishing tenant; beyond it, that tenant's oldest sections
	// are evicted (ref-counted: a segment whose records are all dead is
	// deleted). 0 means unlimited.
	TenantQuotaBytes int64
	// MaxSegmentBytes caps the staged payload bytes before Put flushes
	// automatically (default 8 MiB).
	MaxSegmentBytes int64
}

// TenantStats are the per-tenant counters surfaced through /metrics.
type TenantStats struct {
	// Hits counts lookups this tenant resolved from the shared tier;
	// Misses those that fell through to injection.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Publishes counts sections this tenant published; Bytes is its
	// live on-disk footprint; Evictions counts its sections evicted to
	// enforce the quota.
	Publishes uint64 `json:"publishes"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
}

// Stats is a point-in-time snapshot of the store's counters and gauges.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Publishes uint64 `json:"publishes"`
	// Evictions counts sections dropped to enforce a tenant quota or, in
	// a memory-only store, MaxCacheBytes.
	Evictions  uint64 `json:"evictions"`
	FlushErrs  uint64 `json:"flush_errors"`
	Corrupt    uint64 `json:"corrupt_records"`
	Bytes      int64  `json:"bytes"`       // live on-disk payload bytes
	CacheBytes int64  `json:"cache_bytes"` // decoded-LRU footprint
	Sections   int    `json:"sections"`    // live sections, staged ones included
	Segments   int    `json:"segments"`
	// Tenants maps tenant names to their counters; tenants appear on
	// their first lookup or publish.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// loc locates one live record inside a segment.
type loc struct {
	Seg    string // segment file base name
	Off    int64  // record frame offset
	Len    int64  // frame length (header + payload)
	Tenant string // publishing tenant
	Seq    uint64 // in-memory insertion order, for quota eviction
}

// segInfo tracks one segment's liveness for ref-counted compaction.
type segInfo struct {
	size int64 // bytes accounted (scanned prefix)
	live int   // index entries pointing into the segment
}

// checkpoint is the gob payload of the index file.
type checkpoint struct {
	Locs     map[store.Key]loc
	Segments map[string]int64 // segment name → accounted size
}

// cacheEntry is one decoded section in the LRU.
type cacheEntry struct {
	key   store.Key
	sec   *store.Section
	bytes int64
}

// Store is a shared outcome store over one directory. All methods are
// safe for concurrent use; several Store instances (in one process or
// many) may share a directory.
type Store struct {
	opts Options
	fs   errfs.FS

	mu      sync.Mutex
	closed  bool
	nextSeq uint64
	index   map[store.Key]loc
	segs    map[string]segInfo
	pending map[store.Key]*pendingRec
	pendOrd []store.Key // staging order, for deterministic segments
	pendSz  int64

	lru     *list.List // front = most recent
	lruByK  map[store.Key]*list.Element
	lruSize int64

	stats   Stats
	tenants map[string]*TenantStats
	// tenantOrder tracks each tenant's live keys in publish order, the
	// eviction queue behind the per-tenant quota.
	tenantOrder map[string][]store.Key
}

// pendingRec is a staged, not-yet-flushed publish.
type pendingRec struct {
	tenant string
	sec    *store.Section
	enc    []byte // gob payload, encoded at Put time; nil when memory-only
	size   int64  // len(enc), or approxEncodedSize when memory-only
}

// Open opens (creating if necessary) the shared store in opts.Dir and
// loads its index: the checkpoint when present and intact, plus a scan of
// every segment the checkpoint does not fully account for. With an empty
// Dir it returns an empty memory-only store.
func Open(opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = errfs.OS()
	}
	if opts.MaxCacheBytes == 0 {
		opts.MaxCacheBytes = 64 << 20
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 8 << 20
	}
	s := &Store{
		opts:        opts,
		fs:          opts.FS,
		index:       make(map[store.Key]loc),
		segs:        make(map[string]segInfo),
		pending:     make(map[store.Key]*pendingRec),
		lru:         list.New(),
		lruByK:      make(map[store.Key]*list.Element),
		tenants:     make(map[string]*TenantStats),
		tenantOrder: make(map[string][]store.Key),
	}
	if s.memOnly() {
		return s, nil
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ostore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadCheckpointLocked()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// memOnly reports whether the store runs without a directory.
func (s *Store) memOnly() bool { return s.opts.Dir == "" }

// approxEncodedSize estimates the gob payload size of sec without
// encoding it, from the bytes gob spends per outcome, magnitude and
// matrix entry. A memory-only store sizes its LRU entries with it:
// encoding every published section just to measure it took a sixth of a
// service run's CPU.
func approxEncodedSize(sec *store.Section) int64 {
	n := 416 // an empty record: the key and gob's type descriptors
	for _, m := range []map[sites.ClassKey]store.Outcome{sec.Outcomes, sec.Final} {
		for k, o := range m {
			n += len(k.Static.Func) + 16 + 9*len(o.Magnitudes)
		}
	}
	for _, row := range sec.Amp {
		n += 2 + 9*len(row)
	}
	return int64(n)
}

// tenantLocked returns (creating) the counters for tenant.
func (s *Store) tenantLocked(tenant string) *TenantStats {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		s.tenants[tenant] = ts
	}
	return ts
}

// Get returns the stored section for key, or nil. tenant attributes the
// hit or miss; it does not scope the lookup — content addressing makes
// every tenant's sections reusable by every other. A miss first rescans
// the directory so sections published by other processes since the last
// lookup become visible.
func (s *Store) Get(tenant string, key store.Key) *store.Section {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	ts := s.tenantLocked(tenant)
	if p, ok := s.pending[key]; ok {
		s.stats.Hits++
		ts.Hits++
		return p.sec
	}
	if el, ok := s.lruByK[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		ts.Hits++
		return el.Value.(*cacheEntry).sec
	}
	if _, ok := s.index[key]; !ok && !s.memOnly() {
		// Another process may have published since we last looked.
		_ = s.refreshLocked()
	}
	if l, ok := s.index[key]; ok {
		if sec := s.loadLocked(l); sec != nil {
			s.stats.Hits++
			ts.Hits++
			return sec
		}
		// The segment vanished or is corrupt at that offset: drop the
		// stale entry so callers fall back to injecting.
		s.dropLocked(key)
	}
	s.stats.Misses++
	ts.Misses++
	return nil
}

// Contains reports whether key is resolvable without counting a hit or a
// miss (no refresh).
func (s *Store) Contains(key store.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[key]; ok {
		return true
	}
	if _, ok := s.lruByK[key]; ok {
		return true
	}
	_, ok := s.index[key]
	return ok
}

// Put stages sec for publication under key, attributed to tenant.
// Publication is first-write-wins: a key already live (or staged) is left
// untouched — section payloads are immutable, so the copies are
// interchangeable and the earlier one keeps its attribution. The staged
// batch is published by the next Flush (or automatically once it exceeds
// MaxSegmentBytes).
func (s *Store) Put(tenant string, key store.Key, sec *store.Section) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.pending[key]; ok {
		return nil
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	if _, ok := s.lruByK[key]; ok && s.memOnly() {
		return nil
	}
	p := &pendingRec{tenant: tenant, sec: sec}
	if s.memOnly() {
		// Nothing is written, so the payload is only needed for its size.
		p.size = approxEncodedSize(sec)
	} else {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(segRecord{Key: key, Tenant: tenant, Sec: sec}); err != nil {
			return fmt.Errorf("ostore: encoding section %s: %w", key, err)
		}
		p.enc, p.size = buf.Bytes(), int64(buf.Len())
	}
	s.pending[key] = p
	s.pendOrd = append(s.pendOrd, key)
	s.pendSz += p.size
	s.stats.Publishes++
	s.tenantLocked(tenant).Publishes++
	if s.pendSz >= s.opts.MaxSegmentBytes {
		return s.flushLocked()
	}
	return nil
}

// Flush publishes the staged sections as one new segment file: encode
// into a temp file in the store directory, sync, close, rename — the
// same atomic-replace discipline as store.Save, through the same errfs
// seam. On failure the staged batch is retained for the next attempt.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// Close flushes staged sections, writes a final index checkpoint, and
// marks the store closed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	return err
}

// Stats returns a snapshot of the counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Sections = len(s.index) + len(s.pending)
	if s.memOnly() {
		st.Sections = s.lru.Len() + len(s.pending)
	}
	st.Segments = len(s.segs)
	st.CacheBytes = s.lruSize
	st.Tenants = make(map[string]TenantStats, len(s.tenants))
	for name, ts := range s.tenants {
		st.Tenants[name] = *ts
	}
	return st
}

// segRecord is the gob payload of one record.
type segRecord struct {
	Key    store.Key
	Tenant string
	Sec    *store.Section
}

// frameHeaderSize is the per-record frame: u32 payload length, u32
// CRC-32C over key-independent payload bytes.
const frameHeaderSize = 8

// flushLocked publishes the pending batch; no-op when it is empty. A
// memory-only store moves the batch into the LRU instead.
func (s *Store) flushLocked() error {
	if len(s.pendOrd) == 0 {
		return nil
	}
	if s.memOnly() {
		for _, key := range s.pendOrd {
			p := s.pending[key]
			s.cacheInsertLocked(key, p.sec, p.size)
		}
		s.resetPendingLocked()
		return nil
	}
	f, err := s.fs.CreateTemp(s.opts.Dir, ".seg-*.tmp")
	if err != nil {
		s.stats.FlushErrs++
		return fmt.Errorf("ostore: publish: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		s.fs.Remove(tmp)
		s.stats.FlushErrs++
		return fmt.Errorf("ostore: publish: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		return fail(err)
	}
	type placed struct {
		key store.Key
		off int64
		n   int64
	}
	offsets := make([]placed, 0, len(s.pendOrd))
	off := int64(len(segMagic))
	var hdr [frameHeaderSize]byte
	for _, key := range s.pendOrd {
		p := s.pending[key]
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p.enc)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p.enc, crcTable))
		if _, err := f.Write(hdr[:]); err != nil {
			return fail(err)
		}
		if _, err := f.Write(p.enc); err != nil {
			return fail(err)
		}
		n := int64(frameHeaderSize + len(p.enc))
		offsets = append(offsets, placed{key: key, off: off, n: n})
		off += n
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		f = nil
		s.fs.Remove(tmp)
		s.stats.FlushErrs++
		return fmt.Errorf("ostore: publish: %w", err)
	}
	// The temp name's random suffix makes the published name unique
	// across concurrent writers sharing the directory.
	segName := "seg-" + sanitizeSuffix(filepath.Base(tmp)) + ".ffo"
	if err := s.fs.Rename(tmp, filepath.Join(s.opts.Dir, segName)); err != nil {
		s.fs.Remove(tmp)
		s.stats.FlushErrs++
		return fmt.Errorf("ostore: publish: %w", err)
	}

	// Register the segment before inserting so dropLocked can ref it;
	// only records that actually entered the index count live (a
	// concurrent refresh may have brought a key in from another writer's
	// segment between Put and Flush).
	live := 0
	s.segs[segName] = segInfo{size: off}
	for _, pl := range offsets {
		p := s.pending[pl.key]
		if s.indexInsertLocked(pl.key, loc{Seg: segName, Off: pl.off, Len: pl.n, Tenant: p.tenant}) {
			live++
		}
		s.cacheInsertLocked(pl.key, p.sec, pl.n-frameHeaderSize)
	}
	if live == 0 {
		// Every record lost the first-write race: the segment holds only
		// duplicates, so drop the file immediately.
		delete(s.segs, segName)
		_ = s.fs.Remove(filepath.Join(s.opts.Dir, segName))
	} else {
		si := s.segs[segName]
		si.live = live
		s.segs[segName] = si
	}
	s.resetPendingLocked()
	s.enforceQuotasLocked()
	s.writeCheckpointLocked()
	return nil
}

func (s *Store) resetPendingLocked() {
	s.pending = make(map[store.Key]*pendingRec)
	s.pendOrd = nil
	s.pendSz = 0
}

// sanitizeSuffix turns a temp-file base name into a safe segment-name
// suffix (the random portion is what matters).
func sanitizeSuffix(base string) string {
	base = strings.TrimPrefix(base, ".seg-")
	base = strings.TrimSuffix(base, ".tmp")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, base)
}

// indexInsertLocked records a live entry, first-write-wins: a key that is
// already live keeps its existing location (section payloads are
// immutable, so the copies are interchangeable) and the new record is
// simply not counted live. Reports whether the entry was inserted.
func (s *Store) indexInsertLocked(key store.Key, l loc) bool {
	if _, ok := s.index[key]; ok {
		return false
	}
	s.nextSeq++
	l.Seq = s.nextSeq
	s.index[key] = l
	s.stats.Bytes += l.Len - frameHeaderSize
	ts := s.tenantLocked(l.Tenant)
	ts.Bytes += l.Len - frameHeaderSize
	s.tenantOrder[l.Tenant] = append(s.tenantOrder[l.Tenant], key)
	return true
}

// deadLocked decrements a segment's live count and deletes the file once
// nothing references it (ref-counted compaction).
func (s *Store) deadLocked(segName string) {
	si, ok := s.segs[segName]
	if !ok {
		return
	}
	si.live--
	if si.live > 0 {
		s.segs[segName] = si
		return
	}
	delete(s.segs, segName)
	_ = s.fs.Remove(filepath.Join(s.opts.Dir, segName))
}

// dropLocked removes key from the index and every cache, adjusting
// tenant accounting and segment liveness.
func (s *Store) dropLocked(key store.Key) {
	l, ok := s.index[key]
	if !ok {
		return
	}
	delete(s.index, key)
	s.stats.Bytes -= l.Len - frameHeaderSize
	if ts := s.tenants[l.Tenant]; ts != nil {
		ts.Bytes -= l.Len - frameHeaderSize
	}
	if el, ok := s.lruByK[key]; ok {
		s.lruRemoveLocked(el)
	}
	s.deadLocked(l.Seg)
}

// enforceQuotasLocked evicts each over-quota tenant's oldest sections
// until it is back under TenantQuotaBytes.
func (s *Store) enforceQuotasLocked() {
	quota := s.opts.TenantQuotaBytes
	if quota <= 0 {
		return
	}
	for tenant, ts := range s.tenants {
		if ts.Bytes <= quota {
			continue
		}
		order := s.tenantOrder[tenant]
		kept := order[:0]
		for _, key := range order {
			l, ok := s.index[key]
			if !ok || l.Tenant != tenant {
				continue // already dropped or re-attributed
			}
			if ts.Bytes <= quota {
				kept = append(kept, key)
				continue
			}
			s.dropLocked(key)
			s.stats.Evictions++
			ts.Evictions++
		}
		s.tenantOrder[tenant] = append([]store.Key(nil), kept...)
	}
}

// cacheInsertLocked adds a decoded section to the LRU (front) and evicts
// from the back beyond MaxCacheBytes. LRU eviction only forgets decoded
// bytes; the section stays on disk.
func (s *Store) cacheInsertLocked(key store.Key, sec *store.Section, size int64) {
	if s.opts.MaxCacheBytes < 0 {
		return
	}
	if el, ok := s.lruByK[key]; ok {
		s.lru.MoveToFront(el)
		return
	}
	el := s.lru.PushFront(&cacheEntry{key: key, sec: sec, bytes: size})
	s.lruByK[key] = el
	s.lruSize += size
	for s.lruSize > s.opts.MaxCacheBytes && s.lru.Len() > 1 {
		s.lruRemoveLocked(s.lru.Back())
		if s.memOnly() {
			// The LRU is the whole memory-only store: the section is gone.
			s.stats.Evictions++
		}
	}
}

func (s *Store) lruRemoveLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	s.lru.Remove(el)
	delete(s.lruByK, ce.key)
	s.lruSize -= ce.bytes
}

// loadLocked reads a record's section from its segment, decoding and
// caching every record of that segment on the way (a job that reuses one
// of a segment's sections usually wants the rest too).
func (s *Store) loadLocked(l loc) *store.Section {
	data, err := s.fs.ReadFile(filepath.Join(s.opts.Dir, l.Seg))
	if err != nil {
		return nil
	}
	var want *store.Section
	s.scanRecords(data, func(key store.Key, tenant string, sec *store.Section, off, n int64) {
		s.cacheInsertLocked(key, sec, n-frameHeaderSize)
		if off == l.Off {
			want = sec
		}
	})
	if want == nil {
		s.stats.Corrupt++
	}
	return want
}

// scanRecords walks a segment image, invoking fn for every record whose
// frame and checksum validate, and stops at the first torn or corrupt
// frame (everything after an undetected flip cannot be trusted to be
// framed correctly).
func (s *Store) scanRecords(data []byte, fn func(key store.Key, tenant string, sec *store.Section, off, n int64)) {
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], segMagic[:]) {
		s.stats.Corrupt++
		return
	}
	off := int64(len(segMagic))
	for int(off)+frameHeaderSize <= len(data) {
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen <= 0 || plen > maxRecordBytes || off+frameHeaderSize+plen > int64(len(data)) {
			s.stats.Corrupt++ // torn tail or corrupt length
			return
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+plen]
		if crc32.Checksum(payload, crcTable) != want {
			s.stats.Corrupt++
			return
		}
		var rec segRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil || rec.Sec == nil {
			s.stats.Corrupt++
			return
		}
		fn(rec.Key, rec.Tenant, rec.Sec, off, frameHeaderSize+plen)
		off += frameHeaderSize + plen
	}
}

// refreshLocked reconciles the in-memory index with the directory:
// segments that appeared (other writers) are scanned in name order,
// segments that vanished (compacted elsewhere) are dropped.
func (s *Store) refreshLocked() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("ostore: %w", err)
	}
	onDisk := make(map[string]int64)
	var fresh []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".ffo") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		onDisk[name] = info.Size()
		if known, ok := s.segs[name]; !ok || known.size != info.Size() {
			fresh = append(fresh, name)
		}
	}
	// Drop entries whose segment vanished (another process compacted or
	// evicted it); content addressing makes the drop safe — at worst the
	// section is re-injected.
	for key, l := range s.index {
		if _, ok := onDisk[l.Seg]; !ok {
			s.dropLocked(key)
		}
	}
	for name := range s.segs {
		if _, ok := onDisk[name]; !ok {
			delete(s.segs, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		data, err := s.fs.ReadFile(filepath.Join(s.opts.Dir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced a concurrent compaction
			}
			return fmt.Errorf("ostore: %w", err)
		}
		// Re-scanning a known segment (size changed — should not happen
		// for immutable segments, but a torn rename or manual tampering
		// can): rebuild its liveness from scratch. Unregister the segment
		// *before* dropping its keys, or the last drop would ref-count the
		// file to death and delete the surviving records we are about to
		// re-index from it.
		if old, ok := s.segs[name]; ok && old.size != int64(len(data)) {
			delete(s.segs, name)
			for key, l := range s.index {
				if l.Seg == name {
					s.dropLocked(key)
				}
			}
		}
		live := 0
		s.segs[name] = segInfo{size: int64(len(data))} // registered first so liveness can attach
		s.scanRecords(data, func(key store.Key, tenant string, sec *store.Section, off, n int64) {
			if s.indexInsertLocked(key, loc{Seg: name, Off: off, Len: n, Tenant: tenant}) {
				live++
			}
		})
		if live == 0 {
			// Nothing entered the index: the segment is empty, corrupt
			// from the start, or holds only duplicates of entries another
			// segment already serves. Forget it but leave the file —
			// other processes' indexes may still point into it.
			delete(s.segs, name)
		} else {
			si := s.segs[name]
			si.live = live
			s.segs[name] = si
		}
	}
	return nil
}

// loadCheckpointLocked reads the index checkpoint if present and intact.
// Any failure — missing file, bad magic, CRC mismatch, undecodable gob —
// degrades to an empty index, which refreshLocked then rebuilds by
// scanning every segment. Entries whose segment is gone are dropped.
func (s *Store) loadCheckpointLocked() {
	data, err := s.fs.ReadFile(s.checkpointPath())
	if err != nil {
		return
	}
	if len(data) < len(indexMagic)+frameHeaderSize || !bytes.Equal(data[:len(indexMagic)], indexMagic[:]) {
		s.stats.Corrupt++
		return
	}
	body := data[len(indexMagic):]
	plen := int64(binary.LittleEndian.Uint32(body[0:4]))
	want := binary.LittleEndian.Uint32(body[4:8])
	if plen <= 0 || plen > maxRecordBytes || int64(len(body)) < frameHeaderSize+plen {
		s.stats.Corrupt++
		return
	}
	payload := body[frameHeaderSize : frameHeaderSize+plen]
	if crc32.Checksum(payload, crcTable) != want {
		s.stats.Corrupt++
		return
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		s.stats.Corrupt++
		return
	}
	for name, size := range cp.Segments {
		s.segs[name] = segInfo{size: size}
	}
	// Replay entries in their original insertion order so per-tenant
	// eviction order survives a restart.
	keys := make([]store.Key, 0, len(cp.Locs))
	for key := range cp.Locs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return cp.Locs[keys[i]].Seq < cp.Locs[keys[j]].Seq })
	for _, key := range keys {
		l := cp.Locs[key]
		if _, ok := s.segs[l.Seg]; !ok {
			continue
		}
		if s.indexInsertLocked(key, l) {
			si := s.segs[l.Seg]
			si.live++
			s.segs[l.Seg] = si
		}
	}
}

// writeCheckpointLocked atomically replaces the index checkpoint.
// Best-effort: segments are the source of truth, so a failed checkpoint
// only costs the next Open a scan.
func (s *Store) writeCheckpointLocked() {
	cp := checkpoint{
		Locs:     make(map[store.Key]loc, len(s.index)),
		Segments: make(map[string]int64, len(s.segs)),
	}
	for k, l := range s.index {
		cp.Locs[k] = l
	}
	for name, si := range s.segs {
		cp.Segments[name] = si.size
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return
	}
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload.Bytes(), crcTable))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())

	f, err := s.fs.CreateTemp(s.opts.Dir, ".index-*.tmp")
	if err != nil {
		return
	}
	tmp := f.Name()
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return
	}
	if err := s.fs.Rename(tmp, s.checkpointPath()); err != nil {
		s.fs.Remove(tmp)
	}
}

func (s *Store) checkpointPath() string { return filepath.Join(s.opts.Dir, "index.ffi") }

// Tier is a store.Tier view of a Store whose traffic is attributed to one
// tenant. It counts its own lookups: the store's counters are global, and
// a caller holding one Tier per job reads just that job's share.
type Tier struct {
	s      *Store
	tenant string
	hits   atomic.Uint64
	misses atomic.Uint64
}

// AsTier returns a Tier over s for tenant — the hook store.Store.WithTier
// expects.
func (s *Store) AsTier(tenant string) *Tier { return &Tier{s: s, tenant: tenant} }

func (t *Tier) TierLookup(key store.Key) *store.Section {
	sec := t.s.Get(t.tenant, key)
	if sec != nil {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return sec
}

// TierPublish stages sec; it reaches other handles on the store's next
// Flush. Publish errors surface through the store's stats.
func (t *Tier) TierPublish(key store.Key, sec *store.Section) {
	_ = t.s.Put(t.tenant, key, sec)
}

// Hits and Misses count this view's lookups.
func (t *Tier) Hits() int   { return int(t.hits.Load()) }
func (t *Tier) Misses() int { return int(t.misses.Load()) }
