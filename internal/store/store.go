// Package store persists per-section analysis results for reuse across
// program versions (§4.7). A section instance's results are keyed by its
// *content*: the hashes of the functions it executed plus the values of its
// input buffers. A semantics-preserving change to one function changes only
// that section's key; downstream sections receive identical inputs and
// their stored results remain valid. This is exactly the reuse condition
// FastFlip requires.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"

	"fastflip/internal/errfs"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
)

// Outcome is a serializable injection outcome for one equivalence class.
type Outcome struct {
	Kind       metrics.OutcomeKind
	Reason     metrics.DetectReason
	Magnitudes []float64
}

// ToMetrics converts back to the analysis representation.
func (o Outcome) ToMetrics() metrics.Outcome {
	return metrics.Outcome{Kind: o.Kind, Reason: o.Reason, Magnitudes: o.Magnitudes}
}

// FromMetrics converts an analysis outcome for storage.
func FromMetrics(m metrics.Outcome) Outcome {
	return Outcome{Kind: m.Kind, Reason: m.Reason, Magnitudes: m.Magnitudes}
}

// Section is the stored analysis of one section instance.
type Section struct {
	// Outcomes maps equivalence-class keys (stable across versions) to the
	// pilot outcome observed for that class.
	Outcomes map[sites.ClassKey]Outcome
	// Final, present when the analysis co-ran the baseline (§4.10), maps
	// class keys to the corresponding end-to-end outcome.
	Final map[sites.ClassKey]Outcome
	// Amp is the sensitivity amplification matrix K[out][in].
	Amp [][]float64
	// SimInstrs is what the original injection cost, for bookkeeping.
	SimInstrs uint64
}

// Key identifies a section instance by content.
type Key [32]byte

func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// KeyFor computes the reuse key of a section instance: section static ID,
// executed code identity, input buffer declarations and contents, and
// output/live declarations. Any difference that could change the injection
// outcomes or the amplification matrix through the *declared* dataflow
// changes the key.
//
// The declared dataflow is an approximation: a fault-flipped address can
// make the faulty execution load from output or live-state words it never
// legitimately reads, so an experiment's outcome can additionally depend
// on the entry contents of those buffers (the differential fuzzer found
// exactly this divergence; see DESIGN.md §10). KeyForStrict closes that
// hole at the price of less reuse.
//
// A buffer declaration that falls outside the entry snapshot's memory
// (malformed Addr or Len, including sums that overflow int) is an error,
// not a panic: a multi-tenant service must fail the offending job's build
// step, never the process. The returned key covers only validated bytes.
func KeyFor(t *trace.Trace, inst *trace.Instance) (Key, error) {
	return keyFor(t, inst, false)
}

// KeyForStrict is KeyFor extended with the entry contents of output and
// live buffers, making the key cover everything an error-deflected load
// inside declared state can observe. Incremental re-analysis under strict
// keys reproduces a from-scratch analysis experiment for experiment;
// default keys trade that exactness for the paper's reuse rate.
func KeyForStrict(t *trace.Trace, inst *trace.Instance) (Key, error) {
	return keyFor(t, inst, true)
}

// validBuffer checks one declared buffer against the entry snapshot. The
// length is compared as memWords-Addr rather than Addr+Len vs memWords so
// an adversarial declaration cannot wrap the sum past the check.
func validBuffer(b spec.Buffer, memWords int) error {
	if b.Addr < 0 || b.Len < 0 || b.Addr > memWords || b.Len > memWords-b.Addr {
		return fmt.Errorf("store: buffer %s [addr %d, len %d] outside machine memory [0:%d)", b.Name, b.Addr, b.Len, memWords)
	}
	return nil
}

func keyFor(t *trace.Trace, inst *trace.Instance, strict bool) (Key, error) {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(inst.Sec))
	code := t.CodeKey(inst)
	h.Write(code[:])
	memWords := len(inst.Entry.Mem)
	for _, b := range inst.IO.Inputs {
		if err := validBuffer(b, memWords); err != nil {
			return Key{}, fmt.Errorf("section %d input: %w", inst.Sec, err)
		}
		h.Write([]byte(b.Name))
		wu(uint64(b.Addr))
		wu(uint64(b.Len))
		wu(uint64(b.Kind))
		for i := 0; i < b.Len; i++ {
			wu(inst.Entry.Mem[b.Addr+i])
		}
	}
	for _, b := range append(append([]spec.Buffer{}, inst.IO.Outputs...), inst.IO.Live...) {
		if err := validBuffer(b, memWords); err != nil {
			return Key{}, fmt.Errorf("section %d output/live: %w", inst.Sec, err)
		}
		h.Write([]byte(b.Name))
		wu(uint64(b.Addr))
		wu(uint64(b.Len))
		wu(uint64(b.Kind))
		if strict {
			for i := 0; i < b.Len; i++ {
				wu(inst.Entry.Mem[b.Addr+i])
			}
		}
	}
	if strict {
		wu(1)
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// Tier is a second lookup/publish level behind the in-memory Sections
// map: the shared, cross-process outcome store. A Lookup that misses
// Sections falls through to the tier and promotes a hit; a Put publishes
// to both. Implementations must be safe for concurrent use.
type Tier interface {
	// TierLookup returns the stored section for key, or nil.
	TierLookup(key Key) *Section
	// TierPublish offers a freshly analyzed section to the tier.
	TierPublish(key Key, sec *Section)
}

// Store holds analysis results across versions of one program.
type Store struct {
	// Sections maps content keys to stored per-section results.
	Sections map[Key]*Section
	// AdjustedTargets maps the original target value to the adjusted
	// target v'_trgt computed during the last full analysis (§4.10),
	// per ε threshold.
	AdjustedTargets map[TargetKey]float64
	// ModsSinceAdjust counts program modifications analyzed since the last
	// target adjustment (the paper's m_adj).
	ModsSinceAdjust int

	// tier, when set, backs Sections with the shared outcome store.
	// Unexported on purpose: gob never serializes it, so a saved store
	// file is identical with or without a tier attached.
	tier Tier
}

// TargetKey identifies one adjusted target.
type TargetKey struct {
	Epsilon float64
	Target  float64
}

// New returns an empty store.
func New() *Store {
	return &Store{
		Sections:        make(map[Key]*Section),
		AdjustedTargets: make(map[TargetKey]float64),
	}
}

// WithTier attaches (or clears, with nil) the shared outcome tier behind
// this store's section map and returns the store.
func (s *Store) WithTier(t Tier) *Store {
	s.tier = t
	return s
}

// Clone returns a copy of the store whose maps are independent of the
// original; the per-section payloads are shared (they are immutable once
// recorded). Useful for replaying an analysis against a fixed snapshot.
// The clone keeps the original's tier attachment.
func (s *Store) Clone() *Store {
	c := &Store{
		Sections:        make(map[Key]*Section, len(s.Sections)),
		AdjustedTargets: make(map[TargetKey]float64, len(s.AdjustedTargets)),
		ModsSinceAdjust: s.ModsSinceAdjust,
		tier:            s.tier,
	}
	for k, v := range s.Sections {
		c.Sections[k] = v
	}
	for k, v := range s.AdjustedTargets {
		c.AdjustedTargets[k] = v
	}
	return c
}

// Lookup returns the stored section for key, or nil. A miss in the
// in-memory map falls through to the attached tier (if any); a tier hit
// is promoted into Sections so the analysis serves repeats locally.
func (s *Store) Lookup(key Key) *Section {
	if sec := s.Sections[key]; sec != nil {
		return sec
	}
	if s.tier != nil {
		if sec := s.tier.TierLookup(key); sec != nil {
			s.Sections[key] = sec
			return sec
		}
	}
	return nil
}

// Put records the section under key and offers it to the attached tier.
func (s *Store) Put(key Key, sec *Section) {
	s.Sections[key] = sec
	if s.tier != nil {
		s.tier.TierPublish(key, sec)
	}
}

// Save writes the store to path with encoding/gob (gob round-trips the
// ±Inf magnitudes JSON cannot represent). The write is atomic: the store
// is encoded into a temporary file in the destination directory, synced,
// and renamed over path, so a crash or cancellation mid-save never
// truncates an existing store.
func (s *Store) Save(path string) error {
	return atomicWriteGob(nil, path, s)
}

// SaveFS is Save through an explicit filesystem seam (nil = the real
// filesystem); chaos tests inject write faults through it.
func (s *Store) SaveFS(fsys errfs.FS, path string) error {
	return atomicWriteGob(fsys, path, s)
}

// Load reads a store written by Save.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s := New()
	if err := gob.NewDecoder(f).Decode(s); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", path, err)
	}
	return s, nil
}
