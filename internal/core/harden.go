package core

import (
	"context"
	"fmt"

	"fastflip/internal/asm"
	"fastflip/internal/harden"
	"fastflip/internal/isa"
	"fastflip/internal/knap"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
)

// HardenEval closes the protection loop: it carries the knapsack selection
// that was applied as duplication-and-compare detectors, the hardened
// program, its full re-analysis, and the measured residual figures the
// paper's model only predicts.
type HardenEval struct {
	// Target is the protection value the selection was solved for.
	Target    float64
	Selection *knap.Selection

	// Protected/Skipped are the transform's effective and ineligible
	// subsets of the selection; Map relates static identities across the
	// transform (see harden.Result).
	Protected   []prog.StaticID
	Skipped     []prog.StaticID
	Map         harden.Map
	AddedInstrs int
	Spills      int

	// PredictedResidual is the mechanism-aware bound on the hardened
	// program's SDC-Bad site count, computed from the original campaign
	// alone: duplication-and-compare removes the destination-operand bad
	// sites of every protected instruction (a source flip is re-exposed
	// verbatim at the duplicate, so source sites cancel out), while
	// detector code outside any section and spill save/restore pairs add
	// conservatively-bad exposure back.
	PredictedResidual int
	// ResidualSDC is the measured SDC-Bad site count of the hardened
	// program's own injection campaign.
	ResidualSDC int
	// DetectorCoverage is the fraction of the original tested SDC-Bad
	// sites at protected instructions that no longer measure SDC-Bad in
	// the hardened campaign (1 when nothing bad was protected).
	DetectorCoverage float64
	// DetectorTriggers counts hardened-campaign sites whose injection was
	// caught by a detector trap (outcome Detected/DetectTrap).
	DetectorTriggers int
	// ProtectionOverhead is the hardened program's dynamic instruction
	// overhead relative to the original: (hardened − original)/original.
	ProtectionOverhead float64

	// Prog is the hardened program; Hardened its full analysis result.
	Prog     *spec.Program
	Hardened *Result
}

// Harden applies the protection loop to an analyzed program: solve the
// knapsack for target, apply the selection as duplication-and-compare
// detectors (internal/harden), re-run the full per-section injection
// campaign on the hardened program, and measure the residual SDC against
// the predicted bound. The hardened program's name carries a "+hardened"
// suffix, so its campaign state (store keys, WAL directories) never
// collides with the original's.
func (a *Analyzer) Harden(ctx context.Context, r *Result, eps, target float64) (*HardenEval, error) {
	ffBC := r.FFBadCounts(eps)
	solver := knap.New(r.Items(ffBC))
	sel, err := solver.MinCostFor(target)
	if err != nil {
		// Target beyond what the labeling can reach: protect everything.
		if sel, err = solver.MinCostFor(solver.MaxValue()); err != nil {
			return nil, fmt.Errorf("core: harden: %w", err)
		}
	}

	hp, hres, err := harden.Program(r.Prog, sel.Set(), harden.Options{})
	if err != nil {
		return nil, err
	}

	// Re-analyze the hardened program with the same campaign discipline
	// (pruning, elision, WAL/resume, distribution) but no baseline work:
	// the hardened run only needs its own labeling.
	sub := &Analyzer{Cfg: a.Cfg, Store: a.Store, Progress: a.Progress}
	sub.Cfg.Targets = nil
	sub.Cfg.AdjustTargets = false
	sub.Cfg.CoRunBaseline = false
	hr, err := sub.AnalyzeContext(ctx, hp)
	if err != nil {
		return nil, err
	}
	hardBC := hr.FFBadCounts(eps)

	h := &HardenEval{
		Target:      target,
		Selection:   sel,
		Protected:   hres.Protected,
		Skipped:     hres.Skipped,
		Map:         hres.Map,
		AddedInstrs: hres.AddedInstrs,
		Spills:      hres.Spills,
		ResidualSDC: hardBC.Total,
		Prog:        hp,
		Hardened:    hr,
	}

	eff := make(map[prog.StaticID]bool, len(hres.Protected))
	for _, id := range hres.Protected {
		eff[id] = true
	}

	// The predicted bound subtracts only the destination-operand bad sites
	// of the effective protected set: a compare after the original catches
	// every destination flip, while a source flip at the duplicate escapes
	// exactly as often as the original's (now-detected) source flip did.
	ffBad := r.ffBad(eps)
	badDst := r.badCounts(r.ffClasses, func(rec classRecord) bool {
		return rec.class.Key.Role == isa.OperandDst && ffBad(rec)
	}, false)
	predicted := ffBC.Total
	for id := range eff {
		predicted -= badDst.PerStatic[id]
	}
	// Detector code emitted outside every section is never injected and
	// therefore conservatively SDC-Bad (§4.9 s⊥): add the growth back.
	if d := hr.UntestedSites - r.UntestedSites; d > 0 {
		predicted += d
	}
	// Spill save/restore pairs are the one detector component whose own
	// faults are not self-detecting: a flip on the saved value or on the
	// restore destination lands back in a live register. Bound each pair
	// by all of its sites going bad.
	if len(hres.SpillsAt) > 0 {
		per := sites.SitesPerOperand(a.Cfg.BurstWidth)
		dynCounts := make(map[prog.StaticID]int)
		for d := r.Trace.ROIBeg + 1; d < r.Trace.ROIEnd; d++ {
			dynCounts[r.Trace.StaticIDOfDyn(d)]++
		}
		for id, n := range hres.SpillsAt {
			predicted += 2 * per * n * dynCounts[id]
		}
	}
	h.PredictedResidual = predicted

	// Coverage over the protected set: tested bad sites at protected
	// instructions that the hardened campaign no longer measures as bad.
	protBad, residProt := 0, 0
	for id := range eff {
		protBad += ffBC.PerStatic[id] - r.untestedBad[id]
		hid := hres.Map.OrigToHard[id]
		residProt += hardBC.PerStatic[hid] - hr.untestedBad[hid]
	}
	h.DetectorCoverage = 1
	if protBad > 0 {
		h.DetectorCoverage = 1 - float64(residProt)/float64(protBad)
		if h.DetectorCoverage < 0 {
			h.DetectorCoverage = 0
		}
	}

	for _, rec := range hr.ffClasses {
		if rec.out.Kind == metrics.Detected && rec.out.Reason == metrics.DetectTrap {
			h.DetectorTriggers += rec.class.Size()
		}
	}

	if r.Trace.TotalDyn > 0 {
		h.ProtectionOverhead = (float64(hr.Trace.TotalDyn) - float64(r.Trace.TotalDyn)) / float64(r.Trace.TotalDyn)
	}
	return h, nil
}

// Asm disassembles the hardened program back to module source — the text
// clients retrieve through Summary.HardenedAsm and feed to fasm.
func (h *HardenEval) Asm() (string, error) {
	mod, err := asm.ModuleOf(h.Prog.Linked)
	if err != nil {
		return "", err
	}
	return asm.DisassembleProgram(mod), nil
}

// ApplyTo copies the measured protection-loop figures onto a summary.
func (h *HardenEval) ApplyTo(s *Summary) {
	s.ResidualSDC = h.ResidualSDC
	s.PredictedResidual = h.PredictedResidual
	s.DetectorCoverage = h.DetectorCoverage
	s.DetectorTriggers = h.DetectorTriggers
	s.ProtectionOverhead = h.ProtectionOverhead
	s.HardenedTarget = h.Target
}
