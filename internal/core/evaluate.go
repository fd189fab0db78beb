package core

import (
	"fmt"
	"math"
	"sort"

	"fastflip/internal/knap"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/store"
)

// BadCounts is the number of SDC-Bad sites attributed to each static
// instruction, plus the total. With uniform p(j), normalizing a static's
// count by Total gives the protection value v(pc) of Algorithm 2.
type BadCounts struct {
	PerStatic map[prog.StaticID]int
	Total     int
}

// FFBadCounts labels every site with FastFlip's pipeline: per-section
// outcomes propagated through the composed specification (Algorithm 2),
// plus the conservative s⊥ handling of untested sites.
func (r *Result) FFBadCounts(eps float64) BadCounts {
	return r.badCounts(r.ffClasses, r.ffBad(eps), true)
}

// BaseBadCounts labels every site with the monolithic baseline: the final
// outputs' observed SDC magnitude against ε. RunBaseline must have run.
func (r *Result) BaseBadCounts(eps float64) BadCounts {
	return r.badCounts(r.baseClasses, func(rec classRecord) bool { return endToEndBad(rec.out, eps) }, false)
}

// HasCoRun reports whether end-to-end co-run labels are available.
func (r *Result) HasCoRun() bool {
	for _, rec := range r.ffClasses {
		if rec.fin == nil {
			return false
		}
	}
	return len(r.ffClasses) > 0
}

// CoRunBadCounts labels every site with the end-to-end outcomes observed
// by the simultaneous baseline co-run (Config.CoRunBaseline). It plays the
// same ground-truth role as BaseBadCounts but uses FastFlip's per-section
// pilots and adds the conservative s⊥ sites (which the co-run, unlike the
// true monolithic baseline, never injects).
func (r *Result) CoRunBadCounts(eps float64) BadCounts {
	return r.badCounts(r.ffClasses, func(rec classRecord) bool { return rec.fin != nil && endToEndBad(*rec.fin, eps) }, true)
}

// ffBad is FastFlip's labeling rule at ε (Algorithm 2): a class is
// SDC-Bad when its per-section SDC, propagated through the composed
// specification, exceeds ε at some final output.
func (r *Result) ffBad(eps float64) func(classRecord) bool {
	epsVec := r.epsVec(eps)
	return func(rec classRecord) bool {
		return rec.out.Kind == metrics.SDC && r.Spec.Bad(rec.inst, rec.out.Magnitudes, epsVec)
	}
}

// endToEndBad is the ground-truth labeling rule at ε, shared by the
// monolithic baseline and the co-run: an SDC whose largest final-output
// magnitude exceeds ε.
func endToEndBad(out metrics.Outcome, eps float64) bool {
	return out.Kind == metrics.SDC && out.MaxMagnitude() > eps
}

// badCounts sums the sites of the classes bad labels SDC-Bad per static
// instruction, plus the untested sites when withUntested.
func (r *Result) badCounts(recs []classRecord, bad func(classRecord) bool, withUntested bool) BadCounts {
	bc := BadCounts{PerStatic: make(map[prog.StaticID]int)}
	for _, rec := range recs {
		if bad(rec) {
			bc.PerStatic[rec.class.Key.Static] += rec.class.Size()
			bc.Total += rec.class.Size()
		}
	}
	if withUntested {
		for id, n := range r.untestedBad {
			bc.PerStatic[id] += n
			bc.Total += n
		}
	}
	return bc
}

// epsVec expands the uniform ε to one entry per final output.
func (r *Result) epsVec(eps float64) []float64 {
	v := make([]float64, len(r.Prog.FinalOutputs))
	for i := range v {
		v[i] = eps
	}
	return v
}

// Items builds the knapsack items for a labeling: every static instruction
// of interest, with value = its normalized share of SDC-Bad sites and cost
// = its dynamic instance count.
func (r *Result) Items(bc BadCounts) []knap.Item {
	ids := make([]prog.StaticID, 0, len(r.Costs))
	for id := range r.Costs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Func != ids[j].Func {
			return ids[i].Func < ids[j].Func
		}
		return ids[i].Local < ids[j].Local
	})
	items := make([]knap.Item, len(ids))
	for i, id := range ids {
		v := 0.0
		if bc.Total > 0 {
			v = float64(bc.PerStatic[id]) / float64(bc.Total)
		}
		items[i] = knap.Item{ID: id, Value: v, Cost: r.Costs[id]}
	}
	return items
}

// achieved computes a selection's protection value under ground-truth
// labels: the fraction of truth-bad sites whose static instruction is
// protected (§4.10, v_achv).
func achieved(sel *knap.Selection, truth BadCounts) float64 {
	if truth.Total == 0 {
		return 1
	}
	covered := 0
	set := sel.Set()
	for id, n := range truth.PerStatic {
		if set[id] {
			covered += n
		}
	}
	return float64(covered) / float64(truth.Total)
}

// TargetEval is the utility comparison for one v_trgt (one cell group of
// Table 2).
type TargetEval struct {
	Target   float64 // original v_trgt
	Adjusted float64 // v'_trgt actually used for FastFlip's selection

	FF   *knap.Selection // FastFlip's instructions to protect
	Base *knap.Selection // the monolithic baseline's selection

	// Achieved is v_achv: FF's value under the baseline's labels.
	Achieved float64
	// FFCostFrac and BaseCostFrac are the protection costs as fractions of
	// all dynamic instructions of interest; CostDiff is c_exc normalized.
	FFCostFrac   float64
	BaseCostFrac float64
	CostDiff     float64

	// ErrRange is the value error range induced by pilot misprediction;
	// WithinRange reports Achieved ≥ Target − ErrRange.
	ErrRange    float64
	WithinRange bool
}

// Evaluate produces the per-target utility comparison. modified says
// whether p is a modified version analyzed with reuse, in which case the
// stored adjusted targets are used while m_adj < P_adj (§4.10).
// RunBaseline must have been called on r (the baseline labels are the
// ground truth of the comparison and the source of fresh adjustments).
func (a *Analyzer) Evaluate(r *Result, eps float64, modified bool) ([]TargetEval, error) {
	var baseBC BadCounts
	switch {
	case len(r.baseClasses) > 0:
		baseBC = r.BaseBadCounts(eps)
	case r.HasCoRun():
		// Ground truth from the simultaneous co-run (§4.10): no separate
		// monolithic campaign was needed.
		baseBC = r.CoRunBadCounts(eps)
	default:
		return nil, fmt.Errorf("core: Evaluate needs RunBaseline results or co-run labels")
	}
	ffBC := r.FFBadCounts(eps)
	ffSolver := knap.New(r.Items(ffBC))
	baseSolver := knap.New(r.Items(baseBC))

	evals := make([]TargetEval, 0, len(a.Cfg.Targets))
	for _, target := range a.Cfg.Targets {
		baseSel, err := baseSolver.MinCostFor(target)
		if err != nil {
			return nil, err
		}

		adjusted := target
		if a.Cfg.AdjustTargets {
			tk := store.TargetKey{Epsilon: eps, Target: target}
			useStored := modified && a.Store != nil && a.Store.ModsSinceAdjust < a.Cfg.PAdj
			if stored, ok := a.storedTarget(tk); useStored && ok {
				adjusted = stored
			} else {
				adjusted = adjustTarget(ffSolver, baseBC, target)
				if a.Store != nil {
					a.Store.AdjustedTargets[tk] = adjusted
				}
			}
		}

		ffSel, err := ffSolver.MinCostFor(adjusted)
		if err != nil {
			// The adjusted target can exceed what the modified version's
			// labeling can reach; fall back to everything protectable.
			ffSel, err = ffSolver.MinCostFor(ffSolver.MaxValue())
			if err != nil {
				return nil, err
			}
		}

		achv := achieved(ffSel, baseBC)
		ev := TargetEval{
			Target:       target,
			Adjusted:     adjusted,
			FF:           ffSel,
			Base:         baseSel,
			Achieved:     achv,
			FFCostFrac:   float64(ffSel.Cost) / float64(r.TotalCost),
			BaseCostFrac: float64(baseSel.Cost) / float64(r.TotalCost),
			ErrRange:     a.Cfg.PilotInaccuracy * achv,
		}
		ev.CostDiff = ev.FFCostFrac - ev.BaseCostFrac
		ev.WithinRange = achv >= target-ev.ErrRange
		evals = append(evals, ev)
	}
	return evals, nil
}

func (a *Analyzer) storedTarget(tk store.TargetKey) (float64, bool) {
	if a.Store == nil {
		return 0, false
	}
	v, ok := a.Store.AdjustedTargets[tk]
	return v, ok
}

// adjustTarget finds the minimal v'_trgt whose selection achieves at least
// target under the ground-truth labels (§4.10). It scans the candidate
// targets on a fine grid; each probe is one cheap DP query.
func adjustTarget(ffSolver *knap.Solver, truth BadCounts, target float64) float64 {
	const step = 0.0005
	maxV := ffSolver.MaxValue()
	lo := target - 0.30
	if lo < 0 {
		lo = 0
	}
	for v := lo; v <= maxV+step; v += step {
		probe := math.Min(v, maxV)
		sel, err := ffSolver.MinCostFor(probe)
		if err != nil {
			break
		}
		if achieved(sel, truth) >= target {
			return probe
		}
		if probe == maxV {
			break
		}
	}
	// Even protecting everything undershoots (pilot mispredictions):
	// return the maximum achievable target.
	return maxV
}

// Frontier returns the (target, achieved, ffCostFrac, baseCostFrac) series
// for a sweep of targets — the data behind Figure 1. Target adjustment is
// applied the same way Evaluate does for an unmodified version.
func (a *Analyzer) Frontier(r *Result, eps float64, targets []float64) ([]TargetEval, error) {
	saved := a.Cfg.Targets
	a.Cfg.Targets = targets
	defer func() { a.Cfg.Targets = saved }()
	return a.Evaluate(r, eps, false)
}
