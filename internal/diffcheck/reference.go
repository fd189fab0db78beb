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
// per-site inject.Injector.Section/SectionCoRun. It shares no scheduling,
// cursor, journal, elision or batching code with the production engine,
// so agreement between the two is evidence about those tiers. It plugs in
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
	inj := &inject.Injector{T: job.Trace}
	res := core.SectionResult{Outcomes: make([]metrics.Outcome, len(job.Classes))}
	if job.CoRun {
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
		var fin *metrics.Outcome
		var cost uint64
		if job.CoRun {
			res.Outcomes[i], res.Fins[i], cost = inj.SectionCoRun(m, inst, c.PilotSite())
			fin = &res.Fins[i]
		} else {
			res.Outcomes[i], cost = inj.Section(m, inst, c.PilotSite())
		}
		st := inject.Stats{Experiments: 1, SimInstrs: cost}
		res.Stats.Add(st)
		if job.Hooks.Record != nil {
			job.Hooks.Record(i, res.Outcomes[i], fin, st)
		}
	}
	return res, nil
}
