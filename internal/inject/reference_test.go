package inject

import (
	"math"
	"slices"

	"fastflip/internal/metrics"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// The whole-buffer section classifier the journal-diff verdict replaced,
// kept as its reference: every declared output compared word by word,
// then every live-only span scanned.

// referenceVerdict classifies machine m, stopped at inst's SECEND.
func referenceVerdict(inst *trace.Instance, m *vm.Machine) metrics.Outcome {
	out := refCompare(inst.IO.Outputs, inst.Exit, m)
	if out.Kind != metrics.Detected && refLiveSideEffect(liveSpans(inst), inst, m) {
		return ConservativeSDC(len(inst.IO.Outputs))
	}
	return out
}

// refLiveSideEffect reports whether any word of the live spans differs
// from the instance's clean exit state.
func refLiveSideEffect(live []span, inst *trace.Instance, m *vm.Machine) bool {
	for _, s := range live {
		if !slices.Equal(m.Mem[s.lo:s.hi], inst.Exit.Mem[s.lo:s.hi]) {
			return true
		}
	}
	return false
}

// refCompare is metrics.Compare with its buffer loop written out, so the
// reference shares no per-word rule with the classifier under test.
func refCompare(bufs []spec.Buffer, clean, dirty *vm.Machine) metrics.Outcome {
	out := metrics.Outcome{Kind: metrics.Masked}
	for _, b := range bufs {
		mag, malformed := refBufferDiff(b, clean, dirty)
		if malformed {
			return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectBadOutput}
		}
		out.Magnitudes = append(out.Magnitudes, mag)
		if mag != 0 {
			out.Kind = metrics.SDC
		}
	}
	if out.Kind == metrics.Masked {
		out.Magnitudes = nil
	}
	return out
}

func refBufferDiff(b spec.Buffer, clean, dirty *vm.Machine) (mag float64, malformed bool) {
	for i := 0; i < b.Len; i++ {
		cw := clean.Mem[b.Addr+i]
		dw := dirty.Mem[b.Addr+i]
		if cw == dw {
			continue
		}
		switch b.Kind {
		case spec.Float:
			cv := math.Float64frombits(cw)
			dv := math.Float64frombits(dw)
			if (math.IsNaN(dv) || math.IsInf(dv, 0)) && !(math.IsNaN(cv) || math.IsInf(cv, 0)) {
				return 0, true
			}
			if d := math.Abs(cv - dv); d > mag {
				mag = d
			}
		case spec.Int:
			ia, ib := int64(cw), int64(dw)
			if ia > ib {
				ia, ib = ib, ia
			}
			if d := float64(uint64(ib) - uint64(ia)); d > mag {
				mag = d
			}
		}
	}
	return mag, false
}

// sameOutcome reports whether two outcomes agree in kind, reason and the
// bits of every magnitude.
func sameOutcome(a, b metrics.Outcome) bool {
	return a.Kind == b.Kind && a.Reason == b.Reason &&
		slices.EqualFunc(a.Magnitudes, b.Magnitudes, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}
