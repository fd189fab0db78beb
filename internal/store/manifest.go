package store

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"os"

	"fastflip/internal/errfs"
	"fastflip/internal/record"
)

// ManifestVersion is the on-disk manifest format version. A manifest with
// a different version is rejected by LoadManifest so a resume never trusts
// state written by an incompatible binary. Version 2 frames the gob
// payload in a record frame.
const ManifestVersion = 2

// SectionStatus is the campaign progress of one section instance.
type SectionStatus struct {
	// Experiments counts the outcomes durably logged for the section.
	Experiments int
	// Sealed marks a finished section: all experiments plus the sensitivity
	// matrix are in its WAL segment. A manifest entry with Sealed unset is a
	// partially-injected section whose remainder must be scheduled on
	// resume.
	Sealed bool
}

// Manifest is the versioned ledger of an injection campaign: which
// sections have WAL segments, how far each got, and the fingerprints that
// gate resume. It lives next to the per-section segments in the campaign
// directory and is rewritten atomically after every section transition, so
// a crashed campaign is distinguishable — per section — from a finished
// one without parsing any segment.
type Manifest struct {
	// Version is ManifestVersion at write time.
	Version int
	// Program names the analyzed program (bench/variant), informational.
	Program string
	// TraceFP fingerprints the recorded trace the campaign ran against.
	TraceFP uint64
	// ConfigFP fingerprints the campaign configuration knobs that change
	// experiment outcomes or schedules.
	ConfigFP uint64
	// Sections maps section content keys to their campaign status.
	Sections map[Key]SectionStatus
}

// NewManifest returns an empty manifest for the given identity.
func NewManifest(program string, traceFP, configFP uint64) *Manifest {
	return &Manifest{
		Version:  ManifestVersion,
		Program:  program,
		TraceFP:  traceFP,
		ConfigFP: configFP,
		Sections: make(map[Key]SectionStatus),
	}
}

// Matches reports whether the manifest belongs to the same campaign
// identity: same format version, trace, and configuration. A mismatch
// means the on-disk WAL state describes a different campaign and must not
// be resumed into this one.
func (m *Manifest) Matches(traceFP, configFP uint64) bool {
	return m != nil && m.Version == ManifestVersion && m.TraceFP == traceFP && m.ConfigFP == configFP
}

// Save atomically writes the manifest to path: one record frame
// (internal/record) around its gob encoding, replaced through
// errfs.ReplaceFile like the store file.
func (m *Manifest) Save(path string) error {
	return m.SaveFS(nil, path)
}

// SaveFS is Save through an explicit filesystem seam (nil = the real
// filesystem); chaos tests inject write faults through it.
func (m *Manifest) SaveFS(fsys errfs.FS, path string) error {
	var payload bytes.Buffer
	err := gob.NewEncoder(&payload).Encode(m)
	data, ferr := record.Append(nil, payload.Bytes())
	if err = cmp.Or(err, ferr); err == nil {
		err = errfs.ReplaceFile(fsys, path, data)
	}
	if err != nil {
		return fmt.Errorf("store: saving manifest %s: %w", path, err)
	}
	return nil
}

// LoadManifest reads a manifest written by Save. A file that is not one
// valid frame, or an unknown version, is an error: resume code treats it
// as "no usable manifest".
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload, next, ok := record.Next(data, 0)
	if !ok || next != len(data) {
		return nil, fmt.Errorf("store: manifest %s is not a single valid record frame", path)
	}
	m := &Manifest{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(m); err != nil {
		return nil, fmt.Errorf("store: decoding manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("store: manifest %s has version %d, want %d", path, m.Version, ManifestVersion)
	}
	if m.Sections == nil {
		m.Sections = make(map[Key]SectionStatus)
	}
	return m, nil
}
