package core

import (
	"fastflip/internal/metrics"
	"fastflip/internal/sens"
	"fastflip/internal/sites"
	"fastflip/internal/trace"
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

// SetSensitivity swaps the estimator AnalyzeContext runs alongside each
// section's injection and returns a function that restores it.
func SetSensitivity(f func(*trace.Trace, *trace.Instance, sens.Config) (*sens.Amplification, sens.Stats)) (restore func()) {
	old := sensitivity
	sensitivity = f
	return func() { sensitivity = old }
}
