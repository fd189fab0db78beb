package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"fastflip/internal/errfs"
	"fastflip/internal/inject"
	"fastflip/internal/mix"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/trace"
)

// lockName is the fixed file inside a campaign directory; everything else
// in it is a per-section WAL segment.
const lockName = "campaign.lock"

// campaignVersion seeds the campaign fingerprint. Bump it when a change
// makes segments written under the old value unfit to resume: the sweep
// then removes them. It is 2 because it continues the version of the
// campaign manifest that once seeded it, so segments and coord leases
// written before the manifest was removed keep their fingerprints.
const campaignVersion = 2

// campaign is the write-ahead state of one Analyze run: a directory of
// per-section WAL segments, exclusively locked for the duration of the
// analysis. Each segment's header names its section and campaign, and its
// seal says whether it is complete, so the segments are the whole resume
// state. A nil *campaign (or one that failed to acquire its lock)
// degrades every method to a no-op, so AnalyzeContext can call through
// unconditionally.
type campaign struct {
	dir      string
	lock     *os.File
	walFP    uint64 // per-segment header fingerprint (trace ⊕ config)
	resume   bool
	disabled bool
	fs       errfs.FS           // seam for all WAL I/O
	retry    inject.RetryPolicy // backoff for transient write failures

	mu       sync.Mutex
	notes    []string
	degraded bool // latched when any section's segment degraded
}

// openCampaign prepares the campaign directory for p under walDir with
// one inject.SweepSegments: with resume set it keeps the segments whose
// header carries this campaign's fingerprint (trace and config), without
// it none. A held lock — another process or job is running the same
// campaign — disables the WAL for this run instead of failing the
// analysis.
func openCampaign(walDir string, p *spec.Program, t *trace.Trace, cfg Config) (*campaign, error) {
	fsys := cfg.FaultFS
	if fsys == nil {
		fsys = errfs.OS()
	}
	dir := filepath.Join(walDir, sanitizeName(p.Name))
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: wal campaign: %w", err)
	}
	c := &campaign{
		dir:    dir,
		walFP:  mix.Fold(t.Fingerprint(), configFingerprint(cfg)),
		resume: cfg.Resume,
		fs:     fsys,
		retry:  cfg.WALRetry,
	}

	// The lock is flock-based so it dies with the process: a SIGKILLed
	// campaign never wedges its successor.
	lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: wal campaign: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		c.disabled = true
		c.note(fmt.Sprintf("campaign %s is locked by another run; continuing without WAL", dir))
		return c, nil
	}
	c.lock = lf

	n, err := inject.SweepSegments(fsys, dir, c.walFP, cfg.Resume)
	if err != nil {
		c.closeCampaign()
		return nil, err
	}
	if cfg.Resume && n > 0 {
		c.note(fmt.Sprintf("campaign %s: removed %d segment(s) of a different trace or config", dir, n))
	}
	return c, nil
}

// openSection opens (or recovers) the WAL segment of one section. Errors
// and torn-tail truncations are demoted to notes: a broken segment costs
// re-injection, never the analysis.
func (c *campaign) openSection(key store.Key) (*inject.SectionWAL, *inject.Recovered) {
	if c == nil || c.disabled {
		return nil, nil
	}
	w, rec, err := inject.OpenSectionWALOpts(c.dir, key, c.walFP, c.resume, inject.WALOptions{FS: c.fs, Retry: c.retry})
	if err != nil {
		c.note(fmt.Sprintf("section %s: wal disabled: %v", key, err))
		return nil, nil
	}
	if rec.TruncatedBytes > 0 {
		c.note(fmt.Sprintf("section %s: truncated %d bytes of torn wal tail, %d experiments recovered", key, rec.TruncatedBytes, len(rec.Records)))
	}
	if n := len(rec.Poisoned); n > 0 {
		c.note(fmt.Sprintf("section %s: %d poison record(s) from a previous run; their classes will be re-executed", key, n))
	}
	return w, rec
}

// setDegraded latches the campaign's degraded flag after key's segment
// hit a persistent write failure. The analysis continues memory-only for
// that section; the flag surfaces as Result.WALDegraded so callers know a
// resume will re-inject it.
func (c *campaign) setDegraded(key store.Key) {
	if c == nil || c.disabled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.degraded = true
	c.notes = append(c.notes, fmt.Sprintf("section %s: wal degraded after persistent write failure; section results are memory-only", key))
}

// wasDegraded reports whether any section's segment degraded this run.
func (c *campaign) wasDegraded() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// note appends a non-fatal WAL anomaly for Result.WALNotes.
func (c *campaign) note(s string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notes = append(c.notes, s)
}

// takeNotes returns the accumulated notes.
func (c *campaign) takeNotes() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.notes...)
}

// closeCampaign releases the campaign lock.
func (c *campaign) closeCampaign() {
	if c == nil || c.lock == nil {
		return
	}
	syscall.Flock(int(c.lock.Fd()), syscall.LOCK_UN)
	c.lock.Close()
	c.lock = nil
}

// configFingerprint hashes the configuration knobs that change experiment
// outcomes, class enumeration, or cost accounting — the parts a WAL
// segment's contents depend on. Knobs that only change scheduling
// (Workers) or downstream evaluation (Targets, Epsilon) are deliberately
// excluded so they do not invalidate a resumable campaign.
func configFingerprint(cfg Config) uint64 {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	acc := mix.Splitmix64(campaignVersion)
	acc = mix.Fold(acc, b(cfg.Prune))
	acc = mix.Fold(acc, uint64(cfg.BurstWidth))
	acc = mix.Fold(acc, b(cfg.CoRunBaseline))
	acc = mix.Fold(acc, b(cfg.Elide))
	acc = mix.Fold(acc, uint64(cfg.Sens.Samples))
	acc = mix.Fold(acc, math.Float64bits(cfg.Sens.PhiMax))
	acc = mix.Fold(acc, uint64(cfg.Sens.Seed))
	return acc
}

// sanitizeName maps a program name onto a safe directory name.
func sanitizeName(name string) string {
	if name == "" {
		return "program"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, name)
}
