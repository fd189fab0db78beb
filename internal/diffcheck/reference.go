package diffcheck

import (
	"context"

	"fastflip/internal/core"
	"fastflip/internal/inject"
	"fastflip/internal/metrics"
)

// Reference is the oracles' reference injection engine: every experiment
// restores the checkpoint nearest its site on a scalar machine, replays the
// clean prefix, flips, and runs to the end of the experiment through the
// per-site inject.Injector.Section. It shares no scheduling, cursor,
// journal, elision or batching code with the production engine, so
// agreement between the two is evidence about those tiers. It plugs in
// through core.Config.SectionInjector and runs sections in-process,
// experiment by experiment; it is far slower than the production engine
// and exists only for differential checks.
//
// Skip and Record are honored as the seam requires. Every scheduled class
// is simulated (elision flags are ignored), and its Stats carry only the
// accounted cost: Experiments and SimInstrs.
type Reference struct{}

// InjectSection implements core.SectionInjector.
func (Reference) InjectSection(ctx context.Context, job core.SectionJob) (core.SectionResult, error) {
	inst := job.Trace.Instances[job.Instance]
	inj := job.Injector()
	coRun := job.Config.CoRunBaseline
	res := core.SectionResult{Outcomes: make([]metrics.Outcome, len(job.Classes))}
	if coRun {
		res.Fins = make([]metrics.Outcome, len(job.Classes))
	}
	m := job.Trace.Start.Clone()
	for i, c := range job.Classes {
		if i < len(job.Hooks.Skip) && job.Hooks.Skip[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}
		out, fin, cost := inj.Section(m, inst, c.PilotSite(), coRun)
		res.Outcomes[i] = out
		if fin != nil {
			res.Fins[i] = *fin
		}
		st := inject.Stats{Experiments: 1, SimInstrs: cost}
		res.Stats.Add(st)
		if job.Hooks.Record != nil {
			job.Hooks.Record(i, out, fin, st)
		}
	}
	return res, nil
}
