// Package trace records the error-free execution of a program: the dynamic
// instruction stream, the region of interest, and every section instance
// with entry/exit checkpoints, plus an optional dense checkpoint stream
// inside the ROI (every K dynamic instructions, memory-bounded). All
// checkpoints live in one sorted index, so finding the replay seed for an
// injection site is a binary search. The trace is the substrate both
// injection analyses replay against.
package trace

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fastflip/internal/mix"
	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

// safetyCap aborts clean runs that appear to loop forever; it is far above
// any benchmark's nominal length.
const safetyCap = 200_000_000

// Dense checkpointing defaults (see Options).
const (
	// DefaultCheckpointInterval is the dense-checkpoint spacing in dynamic
	// instructions when Options.CheckpointInterval is 0.
	DefaultCheckpointInterval = 1024
	// DefaultMaxCheckpoints bounds the dense checkpoints held in memory
	// when Options.MaxCheckpoints is 0.
	DefaultMaxCheckpoints = 256
)

// Options configure trace recording.
type Options struct {
	// CheckpointInterval is the dense-checkpoint spacing inside the region
	// of interest, in dynamic instructions: 0 uses
	// DefaultCheckpointInterval, negative disables dense checkpointing
	// (the section entry/exit checkpoints remain). Denser checkpoints cut
	// replay distance at the price of one memory image per checkpoint.
	CheckpointInterval int64
	// MaxCheckpoints bounds how many dense checkpoints are held
	// (0 = DefaultMaxCheckpoints). When the cap is hit, every other
	// checkpoint is dropped and the interval doubles, so memory stays
	// bounded however long the trace runs.
	MaxCheckpoints int
}

// Instance is one dynamic execution of a static section.
type Instance struct {
	Sec   int // static section ID
	Occur int // occurrence index among instances of the same section
	IO    spec.InstanceIO

	BegDyn uint64 // dynamic index of the SECBEG instruction
	EndDyn uint64 // dynamic index of the SECEND instruction

	// Entry is the machine state just after SECBEG executed (Dyn == BegDyn+1);
	// Exit is the state just after SECEND executed (Dyn == EndDyn+1).
	Entry *vm.Machine
	Exit  *vm.Machine

	// Funcs is the set of function indices whose instructions executed
	// inside the instance; it determines the instance's code identity for
	// incremental reuse.
	Funcs map[int]bool
}

// Len returns the number of dynamic instructions strictly inside the
// instance (markers excluded).
func (i *Instance) Len() uint64 { return i.EndDyn - i.BegDyn - 1 }

// Contains reports whether dynamic index d is strictly inside the instance.
func (i *Instance) Contains(d uint64) bool { return d > i.BegDyn && d < i.EndDyn }

// Trace is a recorded clean execution.
type Trace struct {
	Prog *spec.Program

	// PCs[d] is the static PC of dynamic instruction d.
	PCs []int32

	ROIBeg, ROIEnd uint64 // dynamic indices of the ROIBEG/ROIEND markers

	Instances []*Instance

	Start *vm.Machine // initialized state before the first instruction
	Final *vm.Machine // halted state

	TotalDyn uint64

	// cps is the full checkpoint index — program start, section
	// entry/exit states, and dense ROI snapshots — sorted by dynamic
	// index, for O(log n) replay seeding.
	cps []checkpoint
	// anchorDyns are the dynamic indices of the section checkpoints only
	// (start, entries, exits), sorted. They anchor the paper's per-
	// experiment cost model, which dense engine checkpoints must not
	// move (see NearestCheckpointDyn).
	anchorDyns []uint64
}

// checkpoint is one recorded clean state: the machine just after dynamic
// instruction dyn-1 executed (machine.Dyn == dyn).
type checkpoint struct {
	dyn uint64
	m   *vm.Machine
}

// Record executes p cleanly and captures the trace with default Options.
func Record(p *spec.Program) (*Trace, error) {
	return RecordWith(p, Options{})
}

// RecordWith executes p cleanly and captures the trace. The clean run must
// halt normally; a crash, timeout, or malformed marker nesting is an error
// in the benchmark itself.
func RecordWith(p *spec.Program, opts Options) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	interval := opts.CheckpointInterval
	if interval == 0 {
		interval = DefaultCheckpointInterval
	}
	maxDense := opts.MaxCheckpoints
	if maxDense <= 0 {
		maxDense = DefaultMaxCheckpoints
	}
	m := p.NewMachine()
	m.MaxDyn = safetyCap

	t := &Trace{Prog: p, Start: m.Clone()}
	var dense []checkpoint
	occur := make([]int, len(p.Sections))
	var open *Instance
	roiOpen, roiSeen := false, false

	for m.Status == vm.Running {
		pc := m.PC
		dyn := m.Dyn
		ev := m.Step()
		if m.Status == vm.Crashed {
			return nil, fmt.Errorf("trace %s: clean run crashed at pc %d: %v", p.Name, pc, m.Crash)
		}
		if m.Status == vm.TimedOut {
			return nil, fmt.Errorf("trace %s: clean run exceeded %d instructions", p.Name, uint64(safetyCap))
		}
		t.PCs = append(t.PCs, int32(pc))

		switch ev.Kind {
		case vm.EvROIBeg:
			if roiOpen || roiSeen {
				return nil, fmt.Errorf("trace %s: multiple or nested ROIBEG", p.Name)
			}
			roiOpen, roiSeen = true, true
			t.ROIBeg = dyn
		case vm.EvROIEnd:
			if !roiOpen {
				return nil, fmt.Errorf("trace %s: ROIEND without ROIBEG", p.Name)
			}
			roiOpen = false
			t.ROIEnd = dyn
		case vm.EvSecBeg:
			if open != nil {
				return nil, fmt.Errorf("trace %s: nested SECBEG %d inside section %d", p.Name, ev.Sec, open.Sec)
			}
			if ev.Sec < 0 || ev.Sec >= len(p.Sections) {
				return nil, fmt.Errorf("trace %s: SECBEG with undeclared section ID %d", p.Name, ev.Sec)
			}
			sec := &p.Sections[ev.Sec]
			occ := occur[ev.Sec]
			if occ >= len(sec.Instances) {
				return nil, fmt.Errorf("trace %s: section %q executed %d times but declares %d instances",
					p.Name, sec.Name, occ+1, len(sec.Instances))
			}
			open = &Instance{
				Sec:    ev.Sec,
				Occur:  occ,
				IO:     sec.Instances[occ],
				BegDyn: dyn,
				Entry:  m.Clone(),
				Funcs:  make(map[int]bool),
			}
			occur[ev.Sec]++
		case vm.EvSecEnd:
			if open == nil || open.Sec != ev.Sec {
				return nil, fmt.Errorf("trace %s: SECEND %d does not match open section", p.Name, ev.Sec)
			}
			open.EndDyn = dyn
			open.Exit = m.Clone()
			t.Instances = append(t.Instances, open)
			open = nil
		default:
			if open != nil {
				fi, _ := p.Linked.FuncOf(pc)
				open.Funcs[fi] = true
			}
		}

		// Dense checkpointing: snapshot the clean state every interval
		// dynamic instructions inside the ROI. When the cap is hit, thin
		// to every other snapshot and double the interval.
		if roiOpen && interval > 0 && m.Dyn%uint64(interval) == 0 {
			dense = append(dense, checkpoint{dyn: m.Dyn, m: m.Clone()})
			if len(dense) > maxDense {
				interval *= 2
				kept := dense[:0]
				for _, cp := range dense {
					if cp.dyn%uint64(interval) == 0 {
						kept = append(kept, cp)
					}
				}
				dense = kept
			}
		}
	}
	if open != nil {
		return nil, fmt.Errorf("trace %s: section %d never closed", p.Name, open.Sec)
	}
	if roiOpen || !roiSeen {
		return nil, fmt.Errorf("trace %s: missing or unclosed region of interest", p.Name)
	}

	t.Final = m
	t.TotalDyn = m.Dyn

	for _, inst := range t.Instances {
		if inst.BegDyn < t.ROIBeg || inst.EndDyn > t.ROIEnd {
			return nil, fmt.Errorf("trace %s: section %d instance %d extends outside the region of interest",
				p.Name, inst.Sec, inst.Occur)
		}
	}
	t.buildIndex(dense)
	return t, nil
}

// buildIndex assembles the sorted checkpoint index and the cost-model
// anchor list from the section checkpoints plus the dense snapshots.
func (t *Trace) buildIndex(dense []checkpoint) {
	t.cps = make([]checkpoint, 0, 1+2*len(t.Instances)+len(dense))
	t.cps = append(t.cps, checkpoint{dyn: 0, m: t.Start})
	for _, inst := range t.Instances {
		t.cps = append(t.cps,
			checkpoint{dyn: inst.BegDyn + 1, m: inst.Entry},
			checkpoint{dyn: inst.EndDyn + 1, m: inst.Exit})
	}
	t.anchorDyns = make([]uint64, len(t.cps))
	for i, cp := range t.cps {
		t.anchorDyns[i] = cp.dyn
	}
	t.cps = append(t.cps, dense...)
	sort.Slice(t.cps, func(i, j int) bool { return t.cps[i].dyn < t.cps[j].dyn })
}

// InstanceAt returns the section instance containing dynamic index d, or
// nil if d falls outside every section (an untested site in §4.9 terms).
// Instances are disjoint and sorted by BegDyn (sections cannot nest), so
// this is a binary search.
func (t *Trace) InstanceAt(d uint64) *Instance {
	i := sort.Search(len(t.Instances), func(i int) bool { return t.Instances[i].BegDyn >= d }) - 1
	if i >= 0 && t.Instances[i].Contains(d) {
		return t.Instances[i]
	}
	return nil
}

// NearestCheckpoint returns the latest recorded machine state at or before
// dynamic index d, to seed a replay: the program start, a section
// entry/exit checkpoint, or a dense ROI snapshot.
func (t *Trace) NearestCheckpoint(d uint64) *vm.Machine {
	m, _ := t.ReplaySeed(d)
	return m
}

// ReplaySeed returns NearestCheckpoint(d) together with its dynamic index,
// so replay engines can account the clean instructions they actually
// simulate.
func (t *Trace) ReplaySeed(d uint64) (*vm.Machine, uint64) {
	i := sort.Search(len(t.cps), func(i int) bool { return t.cps[i].dyn > d }) - 1
	cp := t.cps[i]
	return cp.m, cp.dyn
}

// NearestCheckpointDyn returns the dynamic index of the nearest *section*
// checkpoint (program start or section entry/exit) at or before d. This is
// the per-experiment cost anchor of the paper's checkpoint model: dense
// engine checkpoints deliberately do not move it, so accounted analysis
// costs stay comparable across replay-engine versions.
func (t *Trace) NearestCheckpointDyn(d uint64) uint64 {
	i := sort.Search(len(t.anchorDyns), func(i int) bool { return t.anchorDyns[i] > d }) - 1
	return t.anchorDyns[i]
}

// StaticIDOfDyn returns the stable static identity of dynamic instruction d.
func (t *Trace) StaticIDOfDyn(d uint64) prog.StaticID {
	return t.Prog.Linked.StaticIDOf(int(t.PCs[d]))
}

// Coverage reports how many of the program's static instructions of
// interest (those with at least one register operand) execute within the
// region of interest. The paper's inputs are minimized by Minotaur under
// the constraint that program counter coverage is preserved (§5.4); this
// lets a user check that condition for their own inputs.
func (t *Trace) Coverage() (executed, total int) {
	seen := make(map[int32]bool)
	for d := t.ROIBeg + 1; d < t.ROIEnd; d++ {
		seen[t.PCs[d]] = true
	}
	for pc, in := range t.Prog.Linked.Code {
		if in.NumOperands() == 0 {
			continue
		}
		total++
		if seen[int32(pc)] {
			executed++
		}
	}
	return executed, total
}

// Fingerprint summarizes the recorded clean execution in one 64-bit hash:
// the full program code identity plus the shape of the section schedule
// (ROI bounds, total length, and every instance's identity and extent).
// Two traces with the same fingerprint ran the same code over the same
// section schedule, which is the precondition for resuming a write-ahead
// campaign log recorded against one of them.
func (t *Trace) Fingerprint() uint64 {
	acc := mix.Splitmix64(0xFA57F11F)
	for _, h := range t.Prog.Linked.FuncHashes {
		for i := 0; i+8 <= len(h); i += 8 {
			acc = mix.Fold(acc, binary.LittleEndian.Uint64(h[i:]))
		}
	}
	acc = mix.Fold(acc, t.ROIBeg)
	acc = mix.Fold(acc, t.ROIEnd)
	acc = mix.Fold(acc, t.TotalDyn)
	acc = mix.Fold(acc, uint64(len(t.Instances)))
	for _, inst := range t.Instances {
		acc = mix.Fold(acc, uint64(inst.Sec))
		acc = mix.Fold(acc, uint64(inst.Occur))
		acc = mix.Fold(acc, inst.BegDyn)
		acc = mix.Fold(acc, inst.EndDyn)
	}
	return acc
}

// CodeKey identifies the code executed by a section instance across program
// versions: the XOR-fold of the hashes of every function executed inside
// it. If any of those function bodies changes, the key changes.
func (t *Trace) CodeKey(inst *Instance) [32]byte {
	var key [32]byte
	for fi := range inst.Funcs {
		h := t.Prog.Linked.FuncHashes[fi]
		for i := range key {
			key[i] ^= h[i]
		}
	}
	return key
}
