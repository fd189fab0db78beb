package core

import (
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
)

// BaselineClasses exposes the monolithic baseline's classes and their
// outcomes, in campaign order, to external tests.
func (r *Result) BaselineClasses() ([]*sites.Class, []metrics.Outcome) {
	classes := make([]*sites.Class, len(r.baseClasses))
	outs := make([]metrics.Outcome, len(r.baseClasses))
	for i, rec := range r.baseClasses {
		classes[i], outs[i] = rec.class, rec.out
	}
	return classes, outs
}

// CostModel exposes the protection cost model to external tests.
var CostModel = costModel
