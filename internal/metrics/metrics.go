// Package metrics defines injection outcome classification and the SDC
// magnitude metric.
//
// The magnitude metric is the paper's (§5.6): the maximum element-wise
// absolute difference between the clean and the corrupted value of an
// output buffer. Float buffers compare as float64s; integer buffers compare
// as absolute integer difference. A NaN or infinity appearing in a float
// output where the clean run had none counts as a *detectable* output
// change ("misformatted output"), not an SDC.
package metrics

import (
	"fmt"
	"math"

	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

// OutcomeKind classifies the effect of one injected error (§2.1).
type OutcomeKind uint8

const (
	// Masked: the error did not change the compared outputs.
	Masked OutcomeKind = iota
	// SDC: the outputs silently changed; Magnitudes hold per-buffer errors.
	SDC
	// Detected: the error led to a crash, a timeout, or a detectably
	// malformed output (NaN/Inf where the clean output had none).
	Detected
)

func (k OutcomeKind) String() string {
	switch k {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Detected:
		return "detected"
	}
	return fmt.Sprintf("outcome(%d)", uint8(k))
}

// DetectReason records why an outcome is Detected, for diagnostics.
type DetectReason uint8

const (
	DetectNone DetectReason = iota
	DetectCrash
	DetectTimeout
	DetectBadOutput // NaN/Inf introduced into a float output
	// DetectTrap is a hardening detector firing (vm.CrashTrap): the
	// duplicated computation disagreed with the protected instruction and
	// the program trapped. Appended at the end so persisted reason values
	// (WAL records, store and shared-tier records) keep decoding.
	DetectTrap
)

func (r DetectReason) String() string {
	switch r {
	case DetectNone:
		return "-"
	case DetectCrash:
		return "crash"
	case DetectTimeout:
		return "timeout"
	case DetectBadOutput:
		return "malformed output"
	case DetectTrap:
		return "trap"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Outcome is the result of one injection experiment.
type Outcome struct {
	Kind   OutcomeKind
	Reason DetectReason
	// Magnitudes[k] is the SDC magnitude in compared buffer k (the section
	// outputs for per-section experiments, the final outputs for monolithic
	// ones). Only meaningful when Kind == SDC; +Inf marks a side-effect
	// corruption that must be treated as SDC-Bad regardless of ε.
	Magnitudes []float64
}

// MaxMagnitude returns the largest per-buffer magnitude, or 0.
func (o Outcome) MaxMagnitude() float64 {
	max := 0.0
	for _, m := range o.Magnitudes {
		if m > max {
			max = m
		}
	}
	return max
}

// WordDiff is the per-word rule of the magnitude metric: the magnitude of
// one word of a buffer of the given kind between its clean and corrupted
// value, and whether the corrupted word is malformed (NaN/Inf introduced
// into a float word). A buffer's magnitude is the maximum over its words,
// and any malformed word makes the outcome Detected, so a verdict does not
// depend on the order in which words are visited. The magnitude is never
// NaN: a NaN difference, possible only when the clean word is NaN or Inf,
// counts as zero.
func WordDiff(kind spec.BufKind, clean, dirty uint64) (mag float64, malformed bool) {
	if clean == dirty {
		return 0, false
	}
	switch kind {
	case spec.Float:
		cv := math.Float64frombits(clean)
		dv := math.Float64frombits(dirty)
		if (math.IsNaN(dv) || math.IsInf(dv, 0)) && !(math.IsNaN(cv) || math.IsInf(cv, 0)) {
			return 0, true
		}
		if d := math.Abs(cv - dv); d == d {
			return d, false
		}
	case spec.Int:
		return absIntDiff(clean, dirty), false
	}
	return 0, false
}

// BufferDiff computes the SDC magnitude of buffer b between a clean and a
// corrupted machine, and whether the corrupted buffer is malformed
// (NaN/Inf introduced into a float buffer).
func BufferDiff(b spec.Buffer, clean, dirty *vm.Machine) (mag float64, malformed bool) {
	for i := 0; i < b.Len; i++ {
		cw, dw := clean.Mem[b.Addr+i], dirty.Mem[b.Addr+i]
		if cw == dw {
			continue
		}
		d, bad := WordDiff(b.Kind, cw, dw)
		if bad {
			return 0, true
		}
		if d > mag {
			mag = d
		}
	}
	return mag, false
}

// Compare classifies the difference between clean and dirty machines over
// the given buffers: per-buffer magnitudes, or Detected on malformed float
// output.
func Compare(bufs []spec.Buffer, clean, dirty *vm.Machine) Outcome {
	out := Outcome{Kind: Masked}
	for _, b := range bufs {
		mag, malformed := BufferDiff(b, clean, dirty)
		if malformed {
			return Outcome{Kind: Detected, Reason: DetectBadOutput}
		}
		out.Magnitudes = append(out.Magnitudes, mag)
		if mag != 0 {
			out.Kind = SDC
		}
	}
	if out.Kind == Masked {
		out.Magnitudes = nil
	}
	return out
}

// absIntDiff returns |int64(a) - int64(b)| as a float64, saturating instead
// of overflowing.
func absIntDiff(a, b uint64) float64 {
	ia, ib := int64(a), int64(b)
	if ia > ib {
		ia, ib = ib, ia
	}
	d := uint64(ib) - uint64(ia) // two's complement difference is exact
	return float64(d)
}
