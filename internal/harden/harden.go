// Package harden closes the protection loop: it applies a knapsack
// selection (internal/knap) to a linked program as instruction
// duplication-and-compare detectors, in the spirit of the paper's §5.3
// cost model (which prices protection as instruction duplication).
//
// For every protected instruction with a destination register the
// transform emits
//
//	[sta r_s, slot]      ; save scratch when it is live here
//	op   r_s, a, b       ; duplicate into scratch, before the original
//	op   r_d, a, b       ; the original instruction
//	bne  r_s, r_d, trap  ; compare; mismatch crashes with vm.CrashTrap
//	[lda r_s, slot]      ; restore scratch
//
// The duplicate runs *before* the original, so a source-register flip
// landing just before the original reads it (the error model's source
// injection point) is observed as a disagreement with the duplicate's
// clean recomputation, and a destination flip landing just after the
// original writes (the destination injection point) disagrees with the
// scratch copy. Float destinations compare bit-exactly through FBITS
// (FBEQ/FBNE are quiet on NaN; raw bit compare is not).
//
// Scratch registers come from a per-function backward liveness scan with
// an all-registers-live boundary at HALT/RET (final register values are
// observable: the semantics-preservation oracle compares them), so a
// register is only taken without saving when overwriting it provably
// cannot change any architecturally visible state. When no such register
// exists the scratch is spilled to reserved slots appended beyond the
// program's declared memory; the hardened spec raises MemWords by
// ScratchWords and output buffers never overlap the slots. The slots are
// detector-private: the spec's MemLimit keeps them out of reach of the
// program's register-addressed loads and stores, so a fault-deflected
// address crashes exactly where the original program would have.
//
// Optional range/invariant detectors (Options.Ranges) check kernel
// output buffers against profiled bounds just before the section's
// SECEND marker: a NaN or an out-of-bounds value branches to the trap.
//
// Branch targets are remapped to the start of the target instruction's
// detector block, so control flow never lands between a duplicate and
// its compare. Each function with at least one detector gets a single
// TRAP instruction appended as the shared mismatch sink.
package harden

import (
	"fmt"
	"math"
	"sort"

	"fastflip/internal/isa"
	"fastflip/internal/prog"
	"fastflip/internal/spec"
)

// ScratchWords is the number of reserved memory words appended beyond the
// original program's memory for detector spills. Detector blocks are
// self-contained (save/restore around each), so the slots are reused and
// three suffice (one float value, two int compare temporaries); the
// fourth is slack for the range detectors.
const ScratchWords = 4

// Range is one output invariant: every word of Buf must be a non-NaN
// float in [Min, Max] when the section ends, otherwise the detector
// traps. Bounds typically come from profiling the clean run.
type Range struct {
	Buf spec.Buffer
	Min float64
	Max float64
}

// Options configures the transform.
type Options struct {
	// ScratchBase is the absolute word address of the first reserved
	// spill slot — the original program's MemWords.
	ScratchBase int
	// Ranges, keyed by section static ID, inserts range/invariant
	// detectors immediately before that section's SECEND markers.
	Ranges map[int][]Range
}

// Map relates static identities across the transform. Every original
// instruction survives verbatim (at a shifted local index), so both
// directions are total over the original instruction set.
type Map struct {
	OrigToHard map[prog.StaticID]prog.StaticID
	HardToOrig map[prog.StaticID]prog.StaticID
}

// Result is the hardened program plus the transform's accounting.
type Result struct {
	Linked *prog.Linked
	Map    Map
	// Protected is the effective protected set: the requested selection
	// minus the ineligible instructions (no destination register — stores,
	// branches, markers — cannot be duplicate-and-compared). Sorted.
	Protected []prog.StaticID
	// Skipped lists requested instructions that were ineligible. Sorted.
	Skipped []prog.StaticID
	// AddedInstrs counts detector instructions emitted; Spills counts
	// scratch registers that had to be saved/restored through memory.
	AddedInstrs int
	Spills      int
	// SpillsAt breaks Spills down by detector block, keyed by the original
	// static instruction the block protects (the SECEND for range blocks).
	// Spill save/restore instructions are the one detector component whose
	// own fault exposure is not self-detecting (a flipped save lands back
	// in a live register on restore), so residual-SDC bounds need to know
	// where they were emitted.
	SpillsAt map[prog.StaticID]int
}

// regset is a per-register-file liveness bitset.
type regset struct {
	i uint16
	f uint16
}

var allRegs = regset{i: 0xffff, f: 0xffff}

func (s regset) union(o regset) regset { return regset{i: s.i | o.i, f: s.f | o.f} }

func (s regset) deadInt(r uint8) bool   { return s.i&(1<<r) == 0 }
func (s regset) deadFloat(r uint8) bool { return s.f&(1<<r) == 0 }

// Apply hardens l against the selected static instructions and returns
// the transformed program. The input is not modified.
func Apply(l *prog.Linked, sel map[prog.StaticID]bool, opt Options) (*Result, error) {
	fns, err := delink(l)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Map: Map{
			OrigToHard: make(map[prog.StaticID]prog.StaticID),
			HardToOrig: make(map[prog.StaticID]prog.StaticID),
		},
		SpillsAt: make(map[prog.StaticID]int),
	}

	out := prog.New()
	for _, fn := range fns {
		hfn, err := rewrite(fn, sel, opt, res)
		if err != nil {
			return nil, err
		}
		if err := out.Add(hfn); err != nil {
			return nil, err
		}
	}
	linked, err := out.Link(l.FuncNames[0])
	if err != nil {
		return nil, fmt.Errorf("harden: relink: %w", err)
	}
	res.Linked = linked
	sortIDs(res.Protected)
	sortIDs(res.Skipped)
	return res, nil
}

// Program hardens p and returns a new spec with the transformed code and
// the reserved spill slots appended beyond the original memory. Name
// gains a "+hardened" suffix so campaign state (WAL directories, store
// keys via the code hashes) never collides with the original's.
func Program(p *spec.Program, sel map[prog.StaticID]bool, opt Options) (*spec.Program, *Result, error) {
	opt.ScratchBase = p.MemWords
	res, err := Apply(p.Linked, sel, opt)
	if err != nil {
		return nil, nil, err
	}
	hp := *p
	hp.Name = p.Name + "+hardened"
	hp.Linked = res.Linked
	hp.MemWords = p.MemWords + ScratchWords
	// The slots are detector-private: register-addressed loads/stores keep
	// the original bounds, so a fault-deflected address behaves exactly as
	// it would in the unhardened program instead of landing in a slot.
	hp.MemLimit = p.MemWords
	if p.MemLimit != 0 {
		hp.MemLimit = p.MemLimit
	}
	return &hp, res, nil
}

func sortIDs(ids []prog.StaticID) {
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Func != ids[b].Func {
			return ids[a].Func < ids[b].Func
		}
		return ids[a].Local < ids[b].Local
	})
}

// delink reconstructs position-independent functions from a linked
// program: branch targets become function-local again and call targets
// become callee names. Link is its exact inverse.
func delink(l *prog.Linked) ([]*prog.Function, error) {
	n := len(l.Code)
	entryName := make(map[int]string, len(l.FuncStarts))
	for i, s := range l.FuncStarts {
		entryName[s] = l.FuncNames[i]
	}
	fns := make([]*prog.Function, len(l.FuncStarts))
	for i, start := range l.FuncStarts {
		end := n
		for _, o := range l.FuncStarts {
			if o > start && o < end {
				end = o
			}
		}
		fn := &prog.Function{Name: l.FuncNames[i]}
		callIdx := make(map[string]int)
		for pc := start; pc < end; pc++ {
			in := l.Code[pc]
			switch isa.Info(in.Op).Imm {
			case isa.ImmTarget:
				in.Imm -= int64(start)
				if in.Imm < 0 || in.Imm >= int64(end-start) {
					return nil, fmt.Errorf("harden: %s+%d: branch target escapes function", fn.Name, pc-start)
				}
			case isa.ImmCallee:
				callee, ok := entryName[int(in.Imm)]
				if !ok {
					return nil, fmt.Errorf("harden: %s+%d: call target %d is not a function entry", fn.Name, pc-start, in.Imm)
				}
				idx, seen := callIdx[callee]
				if !seen {
					idx = len(fn.Calls)
					callIdx[callee] = idx
					fn.Calls = append(fn.Calls, callee)
				}
				in.Imm = int64(idx)
			}
			fn.Instrs = append(fn.Instrs, in)
		}
		fns[i] = fn
	}
	return fns, nil
}

// liveness runs a backward register-level fixpoint over one function and
// returns liveIn per instruction. The boundary is deliberately strict:
// every register is live at HALT, RET, TRAP, and a fall-through off the
// function end (final register values are compared by the semantics
// oracle), and a CALL reads everything (the callee's behavior is not
// analyzed). A register reported dead is therefore overwritten before
// any architecturally observable point on every path.
func liveness(fn *prog.Function) []regset {
	n := len(fn.Instrs)
	liveIn := make([]regset, n)
	changed := true
	for changed {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			in := fn.Instrs[pc]
			var out regset
			switch in.Op {
			case isa.HALT, isa.RET, isa.TRAP:
				out = allRegs
			case isa.JMP:
				out = liveIn[in.Imm]
			default:
				if pc+1 < n {
					out = liveIn[pc+1]
				} else {
					out = allRegs
				}
				if in.Op.IsBranch() {
					out = out.union(liveIn[in.Imm])
				}
			}
			ni := transfer(in, out)
			if ni != liveIn[pc] {
				liveIn[pc] = ni
				changed = true
			}
		}
	}
	return liveIn
}

// transfer computes liveIn = use ∪ (out − def) for one instruction.
func transfer(in isa.Instr, out regset) regset {
	if in.Op == isa.CALL {
		return allRegs
	}
	info := isa.Info(in.Op)
	st := out
	if info.Dst == isa.RegInt {
		st.i &^= 1 << in.Rd
	} else if info.Dst == isa.RegFloat {
		st.f &^= 1 << in.Rd
	}
	if info.SrcA == isa.RegInt {
		st.i |= 1 << in.Ra
	} else if info.SrcA == isa.RegFloat {
		st.f |= 1 << in.Ra
	}
	if info.SrcB == isa.RegInt {
		st.i |= 1 << in.Rb
	} else if info.SrcB == isa.RegFloat {
		st.f |= 1 << in.Rb
	}
	return st
}

// scratch is one chosen scratch register with its save/restore decision.
type scratch struct {
	reg   uint8
	spill bool
	slot  int64 // absolute spill address; meaningful when spill
}

// pickInt chooses an integer scratch register outside exclude, preferring
// one dead at live (no save needed). Scans descending for determinism
// and to stay clear of the low registers benchmark kernels favor.
func pickInt(live regset, exclude uint16, slot int64) scratch {
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if exclude&(1<<r) == 0 && live.deadInt(uint8(r)) {
			return scratch{reg: uint8(r)}
		}
	}
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if exclude&(1<<r) == 0 {
			return scratch{reg: uint8(r), spill: true, slot: slot}
		}
	}
	panic("harden: no integer register available") // exclude can never cover all 16
}

func pickFloat(live regset, exclude uint16, slot int64) scratch {
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if exclude&(1<<r) == 0 && live.deadFloat(uint8(r)) {
			return scratch{reg: uint8(r)}
		}
	}
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if exclude&(1<<r) == 0 {
			return scratch{reg: uint8(r), spill: true, slot: slot}
		}
	}
	panic("harden: no float register available")
}

// operandBits returns the registers in occupied by in, per file.
func operandBits(in isa.Instr) (ints, floats uint16) {
	info := isa.Info(in.Op)
	add := func(class isa.RegClass, r uint8) {
		if class == isa.RegInt {
			ints |= 1 << r
		} else if class == isa.RegFloat {
			floats |= 1 << r
		}
	}
	add(info.Dst, in.Rd)
	add(info.SrcA, in.Ra)
	add(info.SrcB, in.Rb)
	return ints, floats
}

// plan is the per-original-instruction rewrite decision, fixed before
// layout so block starts can be computed ahead of emission.
type plan struct {
	protect bool
	intDst  bool
	rs      scratch // duplicate destination (int or float per intDst)
	rx, ry  scratch // FBITS compare temporaries (float case only)
	ranges  []Range // SECEND invariant checks
	rfs     scratch // range-check value register (float)
	rfb     scratch // range-check bound register (float)
	prefix  int     // instructions emitted before the original
	suffix  int     // instructions emitted after it
}

func spillLen(ss ...scratch) int {
	n := 0
	for _, s := range ss {
		if s.spill {
			n++
		}
	}
	return n
}

// rewrite hardens one function. Detector blocks are planned first (their
// lengths fix the new layout), then emitted with branch targets remapped
// to block starts and compare branches patched to the shared trap.
func rewrite(fn *prog.Function, sel map[prog.StaticID]bool, opt Options, res *Result) (*prog.Function, error) {
	liveIn := liveness(fn)
	slot := func(k int) int64 { return int64(opt.ScratchBase + k) }

	plans := make([]plan, len(fn.Instrs))
	anyDetector := false
	for idx, in := range fn.Instrs {
		p := &plans[idx]
		id := prog.StaticID{Func: fn.Name, Local: idx}
		info := isa.Info(in.Op)
		if sel[id] {
			if info.Dst == isa.RegNone {
				res.Skipped = append(res.Skipped, id)
			} else {
				p.protect = true
				p.intDst = info.Dst == isa.RegInt
				exInt, exFloat := operandBits(in)
				if p.intDst {
					p.rs = pickInt(liveIn[idx], exInt, slot(1))
					p.prefix = 1 + spillLen(p.rs) // [sta] dup
					p.suffix = 1 + spillLen(p.rs) // bne [lda]
				} else {
					p.rs = pickFloat(liveIn[idx], exFloat, slot(0))
					p.rx = pickInt(liveIn[idx], exInt, slot(1))
					exInt |= 1 << p.rx.reg
					p.ry = pickInt(liveIn[idx], exInt, slot(2))
					p.prefix = 1 + spillLen(p.rs, p.rx, p.ry) // saves + dup
					p.suffix = 3 + spillLen(p.rs, p.rx, p.ry) // fbits ×2, bne, restores
				}
				res.Protected = append(res.Protected, id)
				anyDetector = true
			}
		}
		if in.Op == isa.SECEND {
			if rs := opt.Ranges[int(in.Imm)]; len(rs) > 0 {
				p.ranges = rs
				p.rfs = pickFloat(liveIn[idx], 0, slot(0))
				p.rfb = pickFloat(liveIn[idx], 1<<p.rfs.reg, slot(3))
				words := 0
				for _, r := range rs {
					words += r.Buf.Len
				}
				// Per word: flda, NaN fbne, fli min, fblt, fli max, fblt.
				p.prefix = 6*words + 2*spillLen(p.rfs, p.rfb)
				anyDetector = true
			}
		}
	}

	// Layout: blockStart[idx] is where idx's block begins in the new
	// body, origPos[idx] where the original instruction itself lands.
	blockStart := make([]int, len(fn.Instrs)+1)
	origPos := make([]int, len(fn.Instrs))
	pos := 0
	for idx := range fn.Instrs {
		blockStart[idx] = pos
		origPos[idx] = pos + plans[idx].prefix
		pos += plans[idx].prefix + 1 + plans[idx].suffix
	}
	blockStart[len(fn.Instrs)] = pos
	trapIdx := pos // TRAP appended after the last block

	hfn := &prog.Function{Name: fn.Name, Calls: append([]string(nil), fn.Calls...)}
	emit := func(in isa.Instr) { hfn.Instrs = append(hfn.Instrs, in) }
	var trapFix []int
	toTrap := func(in isa.Instr) {
		trapFix = append(trapFix, len(hfn.Instrs))
		emit(in)
	}
	save := func(s scratch, op isa.Op) { // op = STA or FSTA
		if s.spill {
			emit(isa.Instr{Op: op, Ra: s.reg, Imm: s.slot})
		}
	}
	restore := func(s scratch, op isa.Op) { // op = LDA or FLDA
		if s.spill {
			emit(isa.Instr{Op: op, Rd: s.reg, Imm: s.slot})
		}
	}

	for idx, in := range fn.Instrs {
		p := plans[idx]

		if len(p.ranges) > 0 {
			save(p.rfs, isa.FSTA)
			save(p.rfb, isa.FSTA)
			for _, r := range p.ranges {
				for w := 0; w < r.Buf.Len; w++ {
					emit(isa.Instr{Op: isa.FLDA, Rd: p.rfs.reg, Imm: int64(r.Buf.Addr + w)})
					// NaN compares unequal to itself under the quiet
					// float branches, so fbne(x, x) fires exactly on NaN.
					toTrap(isa.Instr{Op: isa.FBNE, Ra: p.rfs.reg, Rb: p.rfs.reg})
					emit(isa.Instr{Op: isa.FLI, Rd: p.rfb.reg, Imm: int64(math.Float64bits(r.Min))})
					toTrap(isa.Instr{Op: isa.FBLT, Ra: p.rfs.reg, Rb: p.rfb.reg})
					emit(isa.Instr{Op: isa.FLI, Rd: p.rfb.reg, Imm: int64(math.Float64bits(r.Max))})
					toTrap(isa.Instr{Op: isa.FBLT, Ra: p.rfb.reg, Rb: p.rfs.reg})
				}
			}
			restore(p.rfb, isa.FLDA)
			restore(p.rfs, isa.FLDA)
		}

		if p.protect {
			if p.intDst {
				save(p.rs, isa.STA)
			} else {
				save(p.rs, isa.FSTA)
				save(p.rx, isa.STA)
				save(p.ry, isa.STA)
			}
			dup := in
			dup.Rd = p.rs.reg
			if isa.Info(in.Op).Imm == isa.ImmTarget {
				// Unreachable: target-carrying ops have no destination.
				return nil, fmt.Errorf("harden: %s+%d: branch marked protectable", fn.Name, idx)
			}
			emit(dup)
		}

		// The original instruction, with branch targets remapped to the
		// target's block start so control flow never enters mid-block.
		if isa.Info(in.Op).Imm == isa.ImmTarget {
			in.Imm = int64(blockStart[in.Imm])
		}
		emit(in)

		if p.protect {
			if p.intDst {
				toTrap(isa.Instr{Op: isa.BNE, Ra: p.rs.reg, Rb: in.Rd})
				restore(p.rs, isa.LDA)
			} else {
				emit(isa.Instr{Op: isa.FBITS, Rd: p.rx.reg, Ra: p.rs.reg})
				emit(isa.Instr{Op: isa.FBITS, Rd: p.ry.reg, Ra: in.Rd})
				toTrap(isa.Instr{Op: isa.BNE, Ra: p.rx.reg, Rb: p.ry.reg})
				restore(p.ry, isa.LDA)
				restore(p.rx, isa.LDA)
				restore(p.rs, isa.FLDA)
			}
			if n := spillLen(p.rs, p.rx, p.ry); n > 0 {
				res.Spills += n
				res.SpillsAt[prog.StaticID{Func: fn.Name, Local: idx}] += n
			}
		} else if len(p.ranges) > 0 {
			if n := spillLen(p.rfs, p.rfb); n > 0 {
				res.Spills += n
				res.SpillsAt[prog.StaticID{Func: fn.Name, Local: idx}] += n
			}
		}

		if got := len(hfn.Instrs); got != blockStart[idx]+plans[idx].prefix+1+plans[idx].suffix {
			return nil, fmt.Errorf("harden: %s+%d: block length mismatch (%d vs planned %d)", fn.Name, idx, got-blockStart[idx], plans[idx].prefix+1+plans[idx].suffix)
		}

		oid := prog.StaticID{Func: fn.Name, Local: idx}
		hid := prog.StaticID{Func: fn.Name, Local: origPos[idx]}
		res.Map.OrigToHard[oid] = hid
		res.Map.HardToOrig[hid] = oid
	}

	if anyDetector {
		if trapIdx != len(hfn.Instrs) {
			return nil, fmt.Errorf("harden: %s: trap index drifted", fn.Name)
		}
		emit(isa.Instr{Op: isa.TRAP})
	}
	for _, at := range trapFix {
		hfn.Instrs[at].Imm = int64(trapIdx)
	}
	res.AddedInstrs += len(hfn.Instrs) - len(fn.Instrs)
	return hfn, nil
}
