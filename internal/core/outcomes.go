package core

import (
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
)

// ClassOutcome is the externally comparable record of one injected (or
// reused) error class: which class, in which instance, its per-section
// outcome, and — when a co-run baseline ran — the end-to-end ground-truth
// outcome of the same experiment.
type ClassOutcome struct {
	Key  sites.ClassKey
	Inst int
	Size int
	Out  metrics.Outcome
	// Fin is the co-run end-to-end outcome; nil unless CoRunBaseline.
	Fin *metrics.Outcome
}

// ClassOutcomes returns every per-section class outcome in the analyzer's
// deterministic order. Differential oracles compare these across runs
// (incremental vs scratch, resumed vs uninterrupted, reference vs cursor
// replay); equality here means the analyses agree experiment by
// experiment, not merely in aggregate.
func (r *Result) ClassOutcomes() []ClassOutcome {
	out := make([]ClassOutcome, 0, len(r.ffClasses))
	for _, rec := range r.ffClasses {
		co := ClassOutcome{
			Key:  rec.class.Key,
			Inst: rec.inst,
			Size: rec.class.Size(),
			Out:  rec.out,
		}
		if rec.fin != nil {
			fin := *rec.fin
			co.Fin = &fin
		}
		out = append(out, co)
	}
	return out
}
