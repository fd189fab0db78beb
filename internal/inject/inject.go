// Package inject runs error-injection experiments: it replays the traced
// execution up to a site, flips one register bit, resumes execution, and
// classifies the outcome.
//
// Two experiment shapes exist, mirroring the paper, each with one campaign
// method. The *monolithic* experiment (the Approxilyzer-only baseline,
// RunMonolithic) resumes until the program terminates and compares the
// final outputs. The *per-section* experiment (FastFlip, RunSectionResume)
// resumes until the injected section instance ends and compares that
// section's outputs plus its live state. Its co-run form (§4.10) is the
// same experiment followed by the monolithic finish: the faulty machine
// continues to termination and the final outputs are classified too, in
// one simulation.
//
// Analysis cost is accounted in simulated instructions, the dominant and
// parallelizable part of the paper's core-hours (§6.2). Stats.SimInstrs is
// the paper's per-experiment cost model (checkpoint to experiment end);
// Stats.CleanInstrs/FaultyInstrs split what the replay engine *actually*
// simulates. The default engine schedules a campaign's experiments in
// dynamic-index order, advances one rolling clean-cursor machine per
// worker, and forks each experiment off the cursor with a journal-based
// delta restore — so a shared clean prefix is simulated once per worker
// range instead of once per experiment, and restoring a fork undoes only
// the memory words the faulty run touched. The per-site methods Monolithic
// and Section instead replay each experiment from its nearest checkpoint;
// the differential oracles build their reference engine on them.
package inject

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// TimeoutFactor is the paper's rule (§5.6): an execution whose length
// exceeds 5x the nominal runtime counts as a detected timeout.
const TimeoutFactor = 5

// Stats accumulates analysis cost.
type Stats struct {
	Experiments int
	// SimInstrs is the accounted analysis cost under the paper's model:
	// each experiment costs section-checkpoint-to-end, whatever the engine
	// actually replayed. Tables and speedups are computed from this, so
	// they stay comparable across engine versions.
	SimInstrs uint64
	// CleanInstrs counts the clean-prefix instructions the engine actually
	// simulated (cursor advances, checkpoint-to-site replays); FaultyInstrs
	// counts the instructions executed after a flip. Their sum is the real
	// engine work, ≤ SimInstrs under the cursor scheduler.
	CleanInstrs  uint64
	FaultyInstrs uint64
	// ElidedExperiments counts the experiments resolved by the static
	// masking tier without any simulation (included in Experiments): the
	// flip was proven dead, so the clean outcome was recorded at the exact
	// SimInstrs cost a scalar run would have accounted. ElidedInstrs is
	// that accounted-but-never-simulated cost (included in SimInstrs);
	// elided experiments contribute zero CleanInstrs/FaultyInstrs.
	ElidedExperiments int
	ElidedInstrs      uint64
	// BatchExperiments counts experiments whose faulty suffix ran inside a
	// lockstep vm.Batch (included in Experiments; outcomes and accounted
	// costs are identical to scalar runs). Batches counts the batch
	// dispatch groups; BatchExperiments/Batches is the mean batch width.
	// Batches is engine telemetry attributed at group granularity, so it is
	// the one Stats field per-experiment cost shares do not sum to.
	BatchExperiments int
	Batches          int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Experiments += other.Experiments
	s.SimInstrs += other.SimInstrs
	s.CleanInstrs += other.CleanInstrs
	s.FaultyInstrs += other.FaultyInstrs
	s.ElidedExperiments += other.ElidedExperiments
	s.ElidedInstrs += other.ElidedInstrs
	s.BatchExperiments += other.BatchExperiments
	s.Batches += other.Batches
}

// Injector runs experiments against one recorded trace.
type Injector struct {
	T *trace.Trace
	// Workers is the number of contiguous chunks a campaign is cut into,
	// and the slots of its private pool when Pool is nil; 0 means
	// GOMAXPROCS.
	Workers int
	// NoBatch disables the lockstep batch tier: dense same-dyn experiment
	// groups then run one scalar fork each instead of sharing a vm.Batch.
	// Outcomes and accounted costs are identical either way; this is the
	// escape hatch and equivalence-testing seam.
	NoBatch bool
	// PanicHook, when non-nil, is invoked at the start of every experiment
	// attempt with the class index and the 1-based attempt number. It is a
	// test seam: chaos tests panic from it to exercise the supervision
	// path. Production leaves it nil.
	PanicHook func(class, attempt int)
	// Pool, when non-nil, is the set of worker slots the campaign's chunks
	// run on, shared with the other campaigns of one analysis; nil runs
	// them on a private pool of Workers slots. Either way the campaign is
	// cut into the same Workers chunks.
	Pool *Pool

	mu           sync.Mutex
	poisoned     []Poison
	panicRetries int
}

func (inj *Injector) workers() int {
	if inj.Workers > 0 {
		return inj.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// prepare restores m from the checkpoint nearest the site, replays it to
// just before dynamic instruction site.Dyn and applies the site's flip: the
// per-site path of Monolithic and Section.
func (inj *Injector) prepare(m *vm.Machine, site sites.Site, maxDyn uint64) error {
	seed, _ := inj.T.ReplaySeed(site.Dyn)
	m.RestoreFrom(seed)
	m.MaxDyn = maxDyn
	if ev := m.RunUntilDyn(site.Dyn); ev.Kind != vm.EvNone {
		return fmt.Errorf("inject: clean prefix to dyn %d ended with %v", site.Dyn, ev.Kind)
	}
	_, err := applyFlip(m, site)
	return err
}

// applyFlip injects the site's burst into the positioned machine m (which
// must sit just before dynamic instruction site.Dyn): source operands flip
// before the instruction reads them, destination operands flip after it
// writes. It returns the dynamic index at which faulty execution begins.
func applyFlip(m *vm.Machine, site sites.Site) (uint64, error) {
	width := int(site.Width)
	if width < 1 {
		width = 1
	}
	flip := func() {
		for b := 0; b < width; b++ {
			bit := uint(site.Bit) + uint(b)
			if bit >= 64 {
				break
			}
			if site.Operand.Class == isa.RegFloat {
				m.FlipFloat(int(site.Operand.Reg), bit)
			} else {
				m.FlipInt(int(site.Operand.Reg), bit)
			}
		}
	}
	if site.Operand.Role == isa.OperandDst {
		if ev := m.Step(); ev.Kind != vm.EvNone {
			return m.Dyn, fmt.Errorf("inject: instruction at dyn %d raised %v in clean flow", site.Dyn, ev.Kind)
		}
	}
	flip()
	return m.Dyn, nil
}

// sectionLimit is the per-section timeout rule: the section may run up to
// 5x its nominal length (§5.6) plus slack for the epilogue.
func sectionLimit(inst *trace.Instance) uint64 {
	return inst.BegDyn + 1 + TimeoutFactor*inst.Len() + 64
}

// Monolithic runs one whole-program experiment for site and classifies the
// effect on the program's final outputs. The returned cost is the accounted
// SimInstrs of the experiment.
func (inj *Injector) Monolithic(m *vm.Machine, site sites.Site) (metrics.Outcome, uint64) {
	t := inj.T
	if err := inj.prepare(m, site, TimeoutFactor*t.TotalDyn); err != nil {
		panic(err) // clean replay cannot fail; a failure is a harness bug
	}
	out := inj.monolithicFinish(m)
	return out, m.Dyn - t.NearestCheckpointDyn(site.Dyn)
}

// crashOutcome classifies a crashed machine: a vm.CrashTrap is a hardening
// detector firing (DetectTrap), every other crash kind is an ordinary
// detected crash. Both are Detected in the paper's taxonomy; the reason
// split lets the hardening remeasure report detector coverage.
func crashOutcome(m *vm.Machine) metrics.Outcome {
	reason := metrics.DetectCrash
	if m.Crash == vm.CrashTrap {
		reason = metrics.DetectTrap
	}
	return metrics.Outcome{Kind: metrics.Detected, Reason: reason}
}

// monolithicFinish resumes a prepared machine to termination under the
// whole-program timeout and classifies the effect on the final outputs. A
// co-run calls it on a machine sectionFinish has classified: one that
// already halted, crashed or timed out inside the section stays in that
// state (RunToEvent returns the terminal event again), so its end-to-end
// outcome is the section's terminal one.
func (inj *Injector) monolithicFinish(m *vm.Machine) metrics.Outcome {
	m.MaxDyn = TimeoutFactor * inj.T.TotalDyn
	switch ev := m.Run(); ev.Kind {
	case vm.EvCrash:
		return crashOutcome(m)
	case vm.EvTimeout:
		return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectTimeout}
	}
	return metrics.Compare(inj.T.Prog.FinalOutputs, inj.T.Final, m)
}

// Section runs one per-section experiment for a site inside inst and
// classifies the effect on the instance's outputs and live state. With
// coRun set the experiment continues to program termination and fin is the
// end-to-end outcome of the same simulation (§4.10's simultaneous baseline
// co-run); otherwise fin is nil. The returned cost is the accounted
// SimInstrs of the experiment.
func (inj *Injector) Section(m *vm.Machine, inst *trace.Instance, site sites.Site, coRun bool) (sec metrics.Outcome, fin *metrics.Outcome, cost uint64) {
	if err := inj.prepare(m, site, sectionLimit(inst)); err != nil {
		panic(err)
	}
	sec = inj.sectionFinish(m, newRoles(inst).cursor(nil))
	if coRun {
		f := inj.monolithicFinish(m)
		fin = &f
	}
	return sec, fin, m.Dyn - inj.T.NearestCheckpointDyn(site.Dyn)
}

// sectionFinish resumes a prepared machine until the injected instance
// (cd.inst) ends and classifies the section-level outcome.
func (inj *Injector) sectionFinish(m *vm.Machine, cd *cursorDiff) metrics.Outcome {
	inst := cd.inst
	for {
		ev := m.RunToEvent(vm.NoStop)
		switch ev.Kind {
		case vm.EvSecEnd:
			if ev.Sec != inst.Sec {
				// Control flow escaped into a different section: the
				// instance never produced its outputs. Conservatively
				// SDC-Bad (§4.9, side effects).
				return ConservativeSDC(len(inst.IO.Outputs))
			}
			return cd.verdict(m)
		case vm.EvHalt:
			// The program terminated before the section completed:
			// corrupted control flow skipped the section's remainder.
			return ConservativeSDC(len(inst.IO.Outputs))
		case vm.EvCrash:
			return crashOutcome(m)
		case vm.EvTimeout:
			return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectTimeout}
		}
	}
}

// ConservativeSDC is the +Inf-magnitude SDC outcome over the given number
// of output buffers, SDC-Bad for any ε: the verdict when a section-level
// side effect prevents bounding the corruption, and the fill of a
// quarantined experiment, local or (in a coordinator) remote.
func ConservativeSDC(outputs int) metrics.Outcome {
	mags := make([]float64, outputs)
	for i := range mags {
		mags[i] = math.Inf(1)
	}
	return metrics.Outcome{Kind: metrics.SDC, Magnitudes: mags}
}

// span is the half-open word range [lo, hi).
type span struct{ lo, hi int }

// liveSpans returns the live-declared words of inst that lie outside its
// declared outputs, as ranges: the live-only words of newRoles.
func liveSpans(inst *trace.Instance) []span {
	var spans []span
	for _, lb := range inst.IO.Live {
		lo, hi := lb.Addr, lb.Addr+lb.Len
		for lo < hi {
			// Skip past an output covering lo; otherwise the words up to
			// the nearest output starting after lo are all uncovered.
			end, covered := hi, false
			for _, ob := range inst.IO.Outputs {
				olo, ohi := ob.Addr, ob.Addr+ob.Len
				switch {
				case olo >= ohi: // an empty output covers nothing
				case olo <= lo && lo < ohi:
					lo, covered = ohi, true
				case lo < olo && olo < end:
					end = olo
				}
				if covered {
					break
				}
			}
			if !covered {
				spans = append(spans, span{lo, end})
				lo = end
			}
		}
	}
	return spans
}

// RunMonolithic injects the pilot of every class and returns per-class
// outcomes (indexed like classes) plus cost statistics. Cancelling ctx
// stops the campaign between experiments; the returned outcomes are then
// partial and must be discarded (check ctx.Err after the call).
func (inj *Injector) RunMonolithic(ctx context.Context, classes []*sites.Class) ([]metrics.Outcome, Stats) {
	return inj.runAll(ctx, classes, experiment{
		limit:    TimeoutFactor * inj.T.TotalDyn,
		finish:   func(m *vm.Machine, _ int, _ *cursorDiff) metrics.Outcome { return inj.monolithicFinish(m) },
		conserv:  func(int) metrics.Outcome { return ConservativeSDC(len(inj.T.Prog.FinalOutputs)) },
		masked:   func(int) metrics.Outcome { return metrics.Outcome{Kind: metrics.Masked} },
		cleanEnd: inj.T.Final.Dyn,
	})
}

// RunSection injects the pilot of every class within inst and returns
// per-class outcomes plus cost statistics. Cancellation behaves as in
// RunMonolithic.
func (inj *Injector) RunSection(ctx context.Context, inst *trace.Instance, classes []*sites.Class) ([]metrics.Outcome, Stats) {
	outcomes, _, stats := inj.RunSectionResume(ctx, inst, classes, false, CampaignHooks{})
	return outcomes, stats
}

// RunSectionResume is RunSection with the co-run shape and resume hooks.
// With coRun set every experiment continues past the section to program
// termination (§4.10) and fins holds the end-to-end outcomes, indexed like
// classes; otherwise fins is nil. Classes marked in hooks.Skip are not
// injected (their outcome slots stay zero for the caller to fill from
// recovered records) and hooks.Record observes each completed experiment
// for write-ahead logging.
func (inj *Injector) RunSectionResume(ctx context.Context, inst *trace.Instance, classes []*sites.Class, coRun bool, hooks CampaignHooks) (outcomes, fins []metrics.Outcome, stats Stats) {
	exp := experiment{
		limit:    sectionLimit(inst),
		finish:   func(m *vm.Machine, _ int, cd *cursorDiff) metrics.Outcome { return inj.sectionFinish(m, cd) },
		conserv:  func(int) metrics.Outcome { return ConservativeSDC(len(inst.IO.Outputs)) },
		masked:   func(int) metrics.Outcome { return metrics.Outcome{Kind: metrics.Masked} },
		roles:    newRoles(inst),
		inPlace:  !coRun,
		cleanEnd: inst.Exit.Dyn,
		rank:     sectionRank(inst),
		hooks:    hooks,
	}
	if coRun {
		fins = make([]metrics.Outcome, len(classes))
		if rec := hooks.Record; rec != nil {
			// Attach the end-to-end outcome: fins[i] is written by the same
			// worker before the engine invokes Record.
			exp.hooks.Record = func(i int, out metrics.Outcome, _ *metrics.Outcome, cost Stats) {
				rec(i, out, &fins[i], cost)
			}
		}
		exp.finish = func(m *vm.Machine, i int, cd *cursorDiff) metrics.Outcome {
			sec := inj.sectionFinish(m, cd)
			fins[i] = inj.monolithicFinish(m)
			return sec
		}
		exp.conserv = func(i int) metrics.Outcome {
			fins[i] = ConservativeSDC(len(inj.T.Prog.FinalOutputs))
			return ConservativeSDC(len(inst.IO.Outputs))
		}
		exp.masked = func(i int) metrics.Outcome {
			fins[i] = metrics.Outcome{Kind: metrics.Masked}
			return metrics.Outcome{Kind: metrics.Masked}
		}
		exp.cleanEnd = inj.T.Final.Dyn
	}
	outcomes, stats = inj.runAll(ctx, classes, exp)
	return outcomes, fins, stats
}

// experiment is the campaign-specific half of an injection: the timeout
// limit and the classification of a machine that is already positioned at
// the site with the flip applied.
type experiment struct {
	// limit is the timeout rule: the MaxDyn of every experiment.
	limit uint64
	// finish classifies class i's machine; cd is the worker's cursorDiff
	// over roles, nil when roles is.
	finish func(m *vm.Machine, i int, cd *cursorDiff) metrics.Outcome
	// roles, when non-nil, is the role table of the injected section
	// instance: each worker then keeps a cursorDiff over it in step with
	// its clean cursor.
	roles *roles
	// inPlace says finish is exactly the section verdict at roles.inst's
	// SECEND, so batch survivors stopped in front of it are classified
	// inside the batch.
	inPlace bool
	// conserv yields the conservative worst-case outcome for class i, used
	// to fill the slot of a quarantined (twice-panicked) experiment so the
	// downstream analysis stays sound.
	conserv func(i int) metrics.Outcome
	// masked yields the outcome of a statically-proven-dead flip for class
	// i — by construction the clean outcome of this experiment shape.
	masked func(i int) metrics.Outcome
	// cleanEnd is the clean dynamic count at which this experiment shape
	// terminates (section exit or program end); an elided experiment is
	// accounted SimInstrs = cleanEnd − its checkpoint, exactly what a
	// scalar run of the proven-masked flip would have cost.
	cleanEnd uint64
	// rank orders the campaign's chunks in a pool (sectionRank).
	rank  uint64
	hooks CampaignHooks
}

// ShardRange restricts a campaign to a contiguous slice of the canonical
// dyn-sorted experiment order (see DynOrder): positions [Lo, Hi). It is
// the scheduling seam distributed campaigns shard on — a coordinator
// hands each remote worker one range, and because the order is derived
// deterministically from the class enumeration, coordinator and workers
// agree on what every position means without exchanging class lists.
type ShardRange struct {
	Lo, Hi int
}

// CampaignHooks carries the optional resume/WAL hooks of a campaign.
type CampaignHooks struct {
	// Skip marks classes whose outcome is already known (recovered from a
	// write-ahead log); they are excluded from scheduling. The filtered
	// experiment list is still dyn-sorted and contiguously partitioned, so
	// the clean-cursor invariant (each worker's cursor only moves forward)
	// holds unchanged. Nil or shorter-than-classes entries mean "run".
	Skip []bool
	// Range, when non-nil, restricts the campaign to the classes at
	// positions [Lo, Hi) of the canonical dyn-sorted order. Skip applies
	// on top of the range, so a shard re-lease can exclude the experiments
	// an earlier lease already delivered. Positions outside the range are
	// never scheduled and their outcome slots stay zero.
	Range *ShardRange
	// Record, when non-nil, observes each completed experiment: the class
	// index, its outcome(s) (fin is the co-run end-to-end outcome, nil
	// otherwise), and the experiment's accounted cost share (cursor advance
	// plus flip plus faulty suffix; cost.Experiments is 1). Workers call it
	// concurrently and before the campaign returns, which is exactly what a
	// write-ahead append needs. Per-experiment costs sum to the campaign
	// Stats.
	Record func(i int, out metrics.Outcome, fin *metrics.Outcome, cost Stats)
	// Poison, when non-nil, observes each quarantined class (an experiment
	// that panicked twice on fresh machines) so the campaign can log it
	// durably. A poisoned class is NOT delivered to Record: its outcome is
	// the conservative fill, not a measured one, and a resumed campaign
	// must re-execute the class rather than trust it.
	Poison func(p Poison)
	// Shard, when non-nil, observes the provenance of every remote shard
	// stream a distributed coordinator merged into the campaign (worker
	// ID, lease epoch, dyn-order range, record count). The local engine
	// never invokes it; campaigns with a WAL append a provenance record
	// per call so merged segments stay attributable.
	Shard func(s WALShard)
}

// skips reports whether class index i is marked done.
func (h *CampaignHooks) skips(i int) bool {
	return i < len(h.Skip) && h.Skip[i]
}

// scheduled returns the class indices this campaign actually runs, in the
// canonical dyn-sorted order: the shard range restricts by position first,
// then the skip vector drops already-resolved classes.
func (h *CampaignHooks) scheduled(classes []*sites.Class) []int {
	full := DynOrder(classes)
	lo, hi := 0, len(full)
	if h.Range != nil {
		if lo = h.Range.Lo; lo < 0 {
			lo = 0
		}
		if hi = h.Range.Hi; hi > len(full) {
			hi = len(full)
		}
		if lo > hi {
			lo = hi
		}
	}
	order := make([]int, 0, hi-lo)
	for _, ci := range full[lo:hi] {
		if !h.skips(ci) {
			order = append(order, ci)
		}
	}
	return order
}

// DynOrder returns the canonical experiment order of a campaign: the
// class indices sorted by pilot dynamic index, ties broken by class
// index. It depends only on the class enumeration, so a coordinator and
// its remote workers — each enumerating classes from an independently
// recorded (deterministic) trace — compute identical orders and can name
// shard ranges by position alone.
func DynOrder(classes []*sites.Class) []int {
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := classes[order[a]].Pilot(), classes[order[b]].Pilot()
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	return order
}

// batchFlip injects site's burst into replica k of a batch, the replica
// counterpart of applyFlip's bit loop.
func batchFlip(b *vm.Batch, k int, site sites.Site) {
	width := int(site.Width)
	if width < 1 {
		width = 1
	}
	for off := 0; off < width; off++ {
		bit := uint(site.Bit) + uint(off)
		if bit >= 64 {
			break
		}
		if site.Operand.Class == isa.RegFloat {
			b.FlipFloat(k, int(site.Operand.Reg), bit)
		} else {
			b.FlipInt(k, int(site.Operand.Reg), bit)
		}
	}
}

// elidePass resolves the classes whose pilot flip the static masking tier
// proved dead (sites.Class.Elided) without simulating anything: the faulty
// architectural state is bit-identical to the clean run by construction, so
// the clean outcome of the experiment shape is recorded at the exact
// SimInstrs cost a scalar experiment would have accounted. It returns the
// surviving schedule (filtered in place) plus the stats of the elided
// population. Running before the worker split keeps each worker's chunk
// contiguous in dyn order, so elision composes with sharding and resume.
func (inj *Injector) elidePass(classes []*sites.Class, order []int, exp *experiment, outcomes []metrics.Outcome) ([]int, Stats) {
	var stats Stats
	rest := order[:0]
	for _, i := range order {
		if !classes[i].Elided {
			rest = append(rest, i)
			continue
		}
		outcomes[i] = exp.masked(i)
		acct := exp.cleanEnd - inj.T.NearestCheckpointDyn(classes[i].Pilot())
		cost := Stats{Experiments: 1, ElidedExperiments: 1, SimInstrs: acct, ElidedInstrs: acct}
		stats.Add(cost)
		if exp.hooks.Record != nil {
			exp.hooks.Record(i, outcomes[i], nil, cost)
		}
	}
	return rest, stats
}

// runAll distributes one experiment per class over the worker slots. Each
// chunk checks ctx between experiments, so a cancelled campaign stops
// within one in-flight experiment per chunk. Stats count only the
// experiments actually run.
//
// The engine sorts the pilots by dynamic index, cuts them into one
// contiguous dyn range per worker, and replays the clean execution once
// per range behind a rolling cursor. The ranges run on inj.Pool's slots,
// or on a private pool when the injector has none.
func (inj *Injector) runAll(ctx context.Context, classes []*sites.Class, exp experiment) ([]metrics.Outcome, Stats) {
	outcomes := make([]metrics.Outcome, len(classes))
	if len(classes) == 0 {
		return outcomes, Stats{}
	}

	// Dyn-sorted experiment order, contiguously partitioned so each
	// chunk's cursor only ever moves forward. The shard range (if any)
	// selects positions of the canonical order first; classes recovered
	// from a WAL are then filtered out: the remainder is still dyn-sorted,
	// so the contiguous-range invariant survives both sharding and resume.
	order := exp.hooks.scheduled(classes)
	order, elided := inj.elidePass(classes, order, &exp, outcomes)
	if len(order) == 0 {
		return outcomes, elided
	}

	nw := inj.workers()
	if nw > len(order) {
		nw = len(order)
	}
	pool := inj.Pool
	if pool == nil {
		pool = NewPool(nw)
	}
	statsPer := make([]Stats, nw)
	tasks := make([]func(*engine), nw)
	for w := range tasks {
		chunk := order[w*len(order)/nw : (w+1)*len(order)/nw]
		tasks[w] = func(e *engine) {
			statsPer[w] = inj.runRange(ctx, e, classes, chunk, exp, outcomes)
		}
	}
	pool.run(exp.rank, tasks)

	stats := elided
	for _, s := range statsPer {
		stats.Add(s)
	}
	return outcomes, stats
}

// runRange runs one contiguous dyn-sorted chunk of experiments on a slot's
// engine. The cursor machine advances through the clean execution exactly
// once; every experiment forks off it with a journal and is reverted by
// undoing the words it wrote.
//
// Each experiment attempt runs under panic supervision: a panic discards
// the (possibly wedged) cursor and fork machines, rebuilds both from the
// replay seed, and retries the experiment once. A second panic
// quarantines the class as a Poison with the conservative outcome and the
// chunk moves on. The accounted cost shares are captured against the
// cursor position before the first attempt, so a retried-but-successful
// experiment reports exactly the Stats a panic-free run would — retries
// change real engine work, never the accounting.
func (inj *Injector) runRange(ctx context.Context, e *engine, classes []*sites.Class, chunk []int, exp experiment, outcomes []metrics.Outcome) Stats {
	t := inj.T
	var stats Stats

	seed, _ := t.ReplaySeed(classes[chunk[0]].Pilot())
	e.seed(seed)
	cur := e.cur       // rolling clean cursor, only ever advances
	em := e.em         // experiment machine, forked from the cursor
	batch := e.batch   // lockstep replicas, re-forked off em per group
	var cd *cursorDiff // the section verdict's diff set D, kept in step with cur
	if exp.roles != nil {
		cd = exp.roles.cursor(cur)
	}
	// A rebuild replaces the machines; the slot keeps whatever the chunk
	// ends with.
	defer func() { e.cur, e.em, e.batch = cur, em, batch }()

	// advance moves the shared clean prefix forward to dyn once, mirroring
	// the delta into the experiment machine and into D.
	advance := func(dyn uint64) {
		if dyn <= cur.Dyn {
			return
		}
		cur.BeginJournal()
		if ev := cur.RunUntilDyn(dyn); ev.Kind != vm.EvNone {
			panic(fmt.Errorf("inject: clean cursor to dyn %d ended with %v", dyn, ev.Kind))
		}
		if cd != nil {
			cd.advance(cur)
		}
		if cur.ReplayJournalInto(em) {
			em.CopyScalarsFrom(cur)
		} else {
			em.RestoreFrom(cur)
		}
		cur.EndJournal()
	}
	// rebuild discards both machines after a panic, which may have left
	// either mid-journal or half-restored, and re-seeds them for dyn.
	rebuild := func(dyn uint64) {
		seed, _ := t.ReplaySeed(dyn)
		cur = seed.Clone()
		em = cur.Clone()
		if cd != nil {
			cd.reset(cur)
		}
	}

	// runScalar runs one experiment on a scalar fork of the cursor,
	// including supervision, retry, and record delivery.
	runScalar := func(i int) {
		site := classes[i].PilotSite()

		// Per-experiment cost share; the cursor advance is attributed to the
		// experiment that triggered it so shares sum to the campaign Stats.
		// Captured before the first attempt for panic-retry neutrality.
		var cleanShare uint64
		if site.Dyn > cur.Dyn {
			cleanShare = site.Dyn - cur.Dyn
		}

		run := func(attempt int) Stats {
			if inj.PanicHook != nil {
				inj.PanicHook(i, attempt)
			}
			advance(site.Dyn)

			// Fork: em mirrors the clean state at site.Dyn. Run the faulty
			// suffix under a journal, classify, then undo only what it
			// wrote.
			em.MaxDyn = exp.limit
			em.BeginJournal()
			flipDyn, err := applyFlip(em, site)
			if err != nil {
				panic(err)
			}
			outcomes[i] = exp.finish(em, i, cd)

			expStats := Stats{Experiments: 1}
			expStats.SimInstrs += em.Dyn - t.NearestCheckpointDyn(site.Dyn)
			expStats.CleanInstrs += cleanShare + (flipDyn - site.Dyn)
			expStats.FaultyInstrs += em.Dyn - flipDyn

			if em.UndoJournal() {
				em.CopyScalarsFrom(cur)
			} else {
				em.RestoreFrom(cur)
			}
			return expStats
		}

		var expStats Stats
		poisoned := false
		for attempt := 1; ; attempt++ {
			st, rec := runSupervised(func() *vm.Machine { return em }, func() Stats { return run(attempt) })
			if rec == nil {
				expStats = st
				break
			}
			rebuild(site.Dyn)
			if attempt == 1 {
				inj.notePanicRetry()
				continue
			}
			p := Poison{Class: i, Key: classes[i].Key, Attempts: attempt, MachineFP: rec.fp, Stack: rec.stack}
			inj.notePoison(p)
			outcomes[i] = exp.conserv(i)
			expStats = Stats{Experiments: 1}
			if exp.hooks.Poison != nil {
				exp.hooks.Poison(p)
			}
			poisoned = true
			break
		}
		stats.Add(expStats)
		if !poisoned && exp.hooks.Record != nil {
			exp.hooks.Record(i, outcomes[i], nil, expStats)
		}
	}

	// runBatch advances a same-dyn group of experiments in one lockstep
	// vm.Batch: the clean prefix is advanced once, each replica gets its
	// flip, and one dispatch per opcode drives every faulty suffix until
	// it detaches (crash, control divergence) or the batch reaches a
	// stop-before boundary. When that boundary is the injected instance's
	// own SECEND in a section campaign, the replicas still in lockstep are
	// classified inside the batch from their memory views; every other
	// replica is materialized onto the fork machine and classified by the
	// exact scalar epilogue. Outcomes and accounted costs are identical to
	// forking the group one by one — batching changes wall clock only.
	//
	// Each replica is accounted and recorded in group order, with a
	// cancellation check in between, so the campaign keeps the scalar
	// engine's per-experiment delivery granularity. A panic anywhere
	// inside rebuilds the machines and the batch, then re-runs only the
	// not-yet-delivered members under the scalar path's per-class
	// supervision, so the WAL sees each member exactly once.
	runBatch := func(group []int) {
		pilotDyn := classes[group[0]].Pilot()
		var cleanShare uint64
		if pilotDyn > cur.Dyn {
			cleanShare = pilotDyn - cur.Dyn
		}
		delivered := 0
		_, rec := runSupervised(func() *vm.Machine { return em }, func() Stats {
			advance(pilotDyn)

			// Source flips land before the site instruction. If any
			// replica flips a destination, the batch executes the site
			// instruction once — clean for those replicas, already faulty
			// for source-flipped ones — and the destination flips land
			// after it, the same order applyFlip imposes.
			em.MaxDyn = exp.limit
			b := batch.Reset(em, len(group))
			hasDst := false
			for j, i := range group {
				site := classes[i].PilotSite()
				if site.Operand.Role == isa.OperandDst {
					hasDst = true
					continue
				}
				batchFlip(b, j, site)
			}
			if hasDst {
				if !b.Step() {
					panic(fmt.Errorf("inject: batch at dyn %d stopped before the site instruction", pilotDyn))
				}
				for j, i := range group {
					site := classes[i].PilotSite()
					if site.Operand.Role == isa.OperandDst {
						batchFlip(b, j, site)
					}
				}
			}
			b.Run()
			stats.Batches++
			inPlace := false
			if sec, ok := b.SecEndNext(); ok && exp.inPlace && sec == cd.inst.Sec {
				inPlace = true
				cd.shareBatch(b)
			}

			for j, i := range group {
				if ctx.Err() != nil {
					break
				}
				site := classes[i].PilotSite()
				var out metrics.Outcome
				var end uint64 // the experiment's final dynamic count
				if inPlace && !b.Detached(j) {
					// The scalar epilogue would execute the SECEND and
					// classify: the same verdict, one instruction later.
					out, end = cd.survivor(b, j, em), b.Dyn()+1
				} else {
					em.MaxDyn = exp.limit
					em.BeginJournal()
					b.MaterializeInto(j, em)
					out, end = exp.finish(em, i, cd), em.Dyn
					if em.UndoJournal() {
						em.CopyScalarsFrom(cur)
					} else {
						em.RestoreFrom(cur)
					}
				}
				flipDyn := site.Dyn
				if site.Operand.Role == isa.OperandDst {
					flipDyn++
				}
				cost := Stats{Experiments: 1, BatchExperiments: 1}
				cost.SimInstrs = end - t.NearestCheckpointDyn(site.Dyn)
				if j == 0 {
					cost.CleanInstrs = cleanShare
				}
				cost.CleanInstrs += flipDyn - site.Dyn
				cost.FaultyInstrs = end - flipDyn
				outcomes[i] = out
				stats.Add(cost)
				delivered = j + 1
				if exp.hooks.Record != nil {
					exp.hooks.Record(i, out, nil, cost)
				}
			}
			return Stats{}
		})
		if rec == nil {
			return
		}
		rebuild(pilotDyn)
		batch = new(vm.Batch)
		inj.notePanicRetry()
		for _, i := range group[delivered:] {
			if ctx.Err() != nil {
				break
			}
			runScalar(i)
		}
	}

	// The chunk is dyn-sorted, so experiments sharing a pilot dynamic
	// index — the dense same-range groups the batch tier targets — are
	// consecutive. PanicHook (the chaos-test seam) forces the scalar path
	// so attempt-targeted panics keep their per-class semantics.
	for gi := 0; gi < len(chunk); {
		ge := gi + 1
		for ge < len(chunk) && classes[chunk[ge]].Pilot() == classes[chunk[gi]].Pilot() {
			ge++
		}
		group := chunk[gi:ge]
		gi = ge
		if ctx.Err() != nil {
			break
		}
		if len(group) >= 2 && !inj.NoBatch && inj.PanicHook == nil {
			runBatch(group)
			continue
		}
		for _, i := range group {
			if ctx.Err() != nil {
				break
			}
			runScalar(i)
		}
	}
	return stats
}
