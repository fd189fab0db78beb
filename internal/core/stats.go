package core

import "fastflip/internal/metrics"

// OutcomeStats aggregates the injection outcome distribution over all
// error sites — the classic resiliency breakdown (masked / detected /
// SDC-Good / SDC-Bad, §2.1). Counts are in sites, with each equivalence
// class's pilot outcome ascribed to all of its members.
type OutcomeStats struct {
	Masked   int `json:"masked"`
	Detected int `json:"detected"`
	SDCGood  int `json:"sdc_good"` // silent corruption within the ε tolerance
	SDCBad   int `json:"sdc_bad"`  // silent corruption beyond ε
	Untested int `json:"untested"` // sites outside every section, assumed SDC-Bad (FastFlip only)
}

// Total returns the number of classified sites.
func (o OutcomeStats) Total() int {
	return o.Masked + o.Detected + o.SDCGood + o.SDCBad + o.Untested
}

// FFOutcomeStats classifies every site with FastFlip's pipeline: the
// per-section outcome propagated through the composed specification.
func (r *Result) FFOutcomeStats(eps float64) OutcomeStats {
	o := outcomeStats(r.ffClasses, r.ffBad(eps))
	for _, n := range r.untestedBad {
		o.Untested += n
	}
	return o
}

// BaseOutcomeStats classifies every site with the monolithic baseline's
// end-to-end outcomes. RunBaseline must have run.
func (r *Result) BaseOutcomeStats(eps float64) OutcomeStats {
	return outcomeStats(r.baseClasses, func(rec classRecord) bool { return endToEndBad(rec.out, eps) })
}

// outcomeStats tallies the sites of recs by outcome kind, splitting SDCs
// by the labeling rule bad.
func outcomeStats(recs []classRecord, bad func(classRecord) bool) OutcomeStats {
	var o OutcomeStats
	for _, rec := range recs {
		n := rec.class.Size()
		switch {
		case rec.out.Kind == metrics.Masked:
			o.Masked += n
		case rec.out.Kind == metrics.Detected:
			o.Detected += n
		case bad(rec):
			o.SDCBad += n
		case rec.out.Kind == metrics.SDC:
			o.SDCGood += n
		}
	}
	return o
}
