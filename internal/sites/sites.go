// Package sites enumerates error-injection sites and groups them into
// equivalence classes.
//
// A site is one bit of one register operand of one dynamic instruction in
// the region of interest — the paper's single-event-upset model over
// architectural registers (§5.2). Exhaustively injecting every site is what
// makes instruction-level analyses expensive, so Approxilyzer prunes:
// sites expected to behave alike form an equivalence class, a single
// *pilot* member is injected, and the pilot's outcome is ascribed to the
// whole class (§5.1).
//
// The class key here is (static instruction, operand role, bit), optionally
// restricted to one section instance. The monolithic baseline prunes
// globally (dynamic instances across the whole trace share a pilot);
// FastFlip prunes only within a section instance, because each instance is
// a separate experiment with its own output comparison. This asymmetry
// reproduces the paper's observation that FastFlip cannot prune across
// sections (FFT in Table 3).
package sites

import (
	"cmp"
	"slices"
	"strings"

	"fastflip/internal/isa"
	"fastflip/internal/prog"
	"fastflip/internal/trace"
)

// BitsPerOperand is the number of injectable bits per register operand.
const BitsPerOperand = 64

// SitesPerOperand returns the number of injection sites one register
// operand contributes under a w-bit burst model: one site per starting bit
// such that the whole burst stays inside the register. Width 1 is the
// paper's single-event-upset model; wider bursts model multi-bit upsets in
// physically adjacent cells (§4.8 allows multi-bit error models).
func SitesPerOperand(width int) int {
	if width < 1 {
		width = 1
	}
	if width > BitsPerOperand {
		width = BitsPerOperand
	}
	return BitsPerOperand - width + 1
}

// Site is a single injection site: a burst of Width adjacent bits starting
// at Bit within one register operand of one dynamic instruction.
type Site struct {
	Dyn     uint64
	Operand isa.Operand
	Bit     uint8
	Width   uint8 // 0 and 1 both mean a single-bit flip
}

// ClassKey identifies an equivalence class. Static identity (function name
// + local index) is stable across program versions, so recorded outcomes
// can be reused after unrelated code changes.
type ClassKey struct {
	Static prog.StaticID
	Role   isa.OperandRole
	Bit    uint8
}

// Class is one equivalence class: all dynamic occurrences of a static
// instruction's operand bit within the enumerated range.
type Class struct {
	Key   ClassKey
	Class isa.RegClass // register file of the operand
	Reg   uint8        // architectural register number
	Width uint8        // burst width of the class's sites
	// Members lists the class's dynamic indices, ascending. The slice is
	// read-only: it views one array shared by every class of the same
	// static instruction, with its capacity clipped to its length so that
	// an append copies instead of overwriting a sibling's members.
	Members []uint64
	// Elided marks a class whose burst the static masking analysis proved
	// dead at its instruction: the flipped bits are never observed by any
	// subsequent instruction, so every member site is architecturally
	// Masked and the experiment engine records the clean outcome without
	// simulating. Static liveness is a property of the pc, and a class's
	// members all share one pc, so elision is decided per class.
	Elided bool
}

// Pilot returns the dynamic index of the class pilot: the median member.
// The median makes the pilot representative of a "typical" occurrence; the
// first iteration of a loop is often atypical.
func (c *Class) Pilot() uint64 { return c.Members[len(c.Members)/2] }

// PilotSite returns the injection site of the class pilot.
func (c *Class) PilotSite() Site {
	return Site{
		Dyn:     c.Pilot(),
		Operand: isa.Operand{Role: c.Key.Role, Class: c.Class, Reg: c.Reg},
		Bit:     c.Key.Bit,
		Width:   c.Width,
	}
}

// Size returns the number of sites in the class.
func (c *Class) Size() int { return len(c.Members) }

// Masks is the static bit-liveness oracle consumed during classification
// (satisfied by maskelide.Masks). SiteElidable reports whether flipping the
// width-bit burst at bit of the given operand of the instruction at pc is
// provably invisible to the architectural outcome.
type Masks interface {
	SiteElidable(pc int, op isa.Operand, bit, width uint8) bool
}

// Options configures site enumeration.
type Options struct {
	// Prune enables equivalence-class grouping; false yields singletons.
	Prune bool
	// Width is the burst width in bits (0/1 = single-bit upsets).
	Width int
	// Masks, when non-nil, marks classes whose burst is provably dead
	// (Class.Elided) so the experiment engine can skip them with the clean
	// outcome. Nil disables the elision tier.
	Masks Masks
}

func (o Options) width() int {
	if o.Width < 1 {
		return 1
	}
	if o.Width > BitsPerOperand {
		return BitsPerOperand
	}
	return o.Width
}

// Count returns |J|: the total number of error sites in the region of
// interest of t (Table 1's "# Error Sites" column).
func Count(t *trace.Trace, opts Options) int {
	return CountRange(t, t.ROIBeg+1, t.ROIEnd, opts)
}

// CountRange returns the number of error sites with dynamic index in
// [lo, hi).
func CountRange(t *trace.Trace, lo, hi uint64, opts Options) int {
	if lo >= hi {
		return 0
	}
	code := t.Prog.Linked.Code
	ops := 0
	for _, pc := range t.PCs[lo:hi] {
		ops += code[pc].NumOperands()
	}
	return ops * SitesPerOperand(opts.width())
}

// pcRun is one static instruction with register operands that executes in
// the enumerated range, with its dynamic occurrences there.
type pcRun struct {
	pc      int
	static  prog.StaticID
	members []uint64 // ascending; shared by every class of the pc
}

// classify groups the sites of dynamic range [lo, hi) into equivalence
// classes ordered by (Static.Func, Static.Local, Role, Bit). Without
// pruning every site becomes a singleton class, and singletons of one key
// follow in member order (used by the pruning ablation).
//
// prog.Program rejects duplicate function names, so a pc and its StaticID
// determine each other and a class key is just (pc, role, bit). One
// counting sort over the range's pcs therefore yields every class's
// members: each pc's occurrences form one ascending run of a single member
// array, which all classes of that pc share.
func classify(t *trace.Trace, lo, hi uint64, opts Options) []*Class {
	if lo >= hi {
		return nil
	}
	code := t.Prog.Linked.Code
	pcs := t.PCs[lo:hi]
	base, top := pcs[0], pcs[0]
	for _, pc := range pcs {
		base, top = min(base, pc), max(top, pc)
	}

	// next[pc-base] counts the pc's occurrences, then becomes the write
	// cursor of its run in members; -1 marks a pc with no sites.
	next := make([]int, top-base+1)
	for _, pc := range pcs {
		next[pc-base]++
	}
	distinct, total := 0, 0
	for i, n := range next {
		if n == 0 || code[int(base)+i].NumOperands() == 0 {
			next[i] = -1
			continue
		}
		distinct++
		total += n
	}
	if distinct == 0 {
		return nil
	}
	members := make([]uint64, total)
	runs := make([]pcRun, 0, distinct)
	at := 0
	for i, n := range next {
		if n < 0 {
			continue
		}
		runs = append(runs, pcRun{pc: int(base) + i, members: members[at : at+n : at+n]})
		next[i] = at
		at += n
	}
	for j, pc := range pcs {
		if k := next[pc-base]; k >= 0 {
			members[k] = lo + uint64(j)
			next[pc-base] = k + 1
		}
	}

	// Static identity costs a binary search over function bounds, so it is
	// resolved once per distinct pc, and only the distinct pcs are sorted.
	for i := range runs {
		runs[i].static = t.Prog.Linked.StaticIDOf(runs[i].pc)
	}
	slices.SortFunc(runs, func(a, b pcRun) int {
		return cmp.Or(strings.Compare(a.static.Func, b.static.Func), cmp.Compare(a.static.Local, b.static.Local))
	})

	prune := opts.Prune
	width := opts.width()
	per := SitesPerOperand(width)
	n := 0
	for _, r := range runs {
		k := code[r.pc].NumOperands() * per
		if !prune {
			k *= len(r.members)
		}
		n += k
	}
	slab := make([]Class, n)
	classes := make([]*Class, n)
	i := 0
	emit := func(c Class) {
		slab[i] = c
		classes[i] = &slab[i]
		i++
	}
	var buf [3]isa.Operand
	for _, r := range runs {
		ops := code[r.pc].Operands(buf[:0])
		slices.SortFunc(ops, func(a, b isa.Operand) int { return cmp.Compare(a.Role, b.Role) })
		for _, op := range ops {
			for bit := 0; bit < per; bit++ {
				c := Class{
					Key:   ClassKey{Static: r.static, Role: op.Role, Bit: uint8(bit)},
					Class: op.Class, Reg: op.Reg, Width: uint8(width), Members: r.members,
					Elided: opts.Masks != nil && opts.Masks.SiteElidable(r.pc, op, uint8(bit), uint8(width)),
				}
				if prune {
					emit(c)
					continue
				}
				for j := range r.members {
					c.Members = r.members[j : j+1 : j+1]
					emit(c)
				}
			}
		}
	}
	return classes
}

// Global enumerates equivalence classes over the whole region of interest:
// the monolithic baseline's pruning scope.
func Global(t *trace.Trace, opts Options) []*Class {
	return classify(t, t.ROIBeg+1, t.ROIEnd, opts)
}

// ForInstance enumerates equivalence classes restricted to one section
// instance: FastFlip's pruning scope.
func ForInstance(t *trace.Trace, inst *trace.Instance, opts Options) []*Class {
	return classify(t, inst.BegDyn+1, inst.EndDyn, opts)
}

// Untested returns the dynamic indices in the region of interest that fall
// outside every section instance, paired with their per-instruction site
// counts. FastFlip never injects there; it conservatively assumes SDC-Bad
// (§4.9's s⊥ section).
func Untested(t *trace.Trace, opts Options) (dyns []uint64, siteCount int) {
	per := SitesPerOperand(opts.width())
	for d := t.ROIBeg + 1; d < t.ROIEnd; d++ {
		if t.InstanceAt(d) != nil {
			continue
		}
		n := t.Prog.Linked.Code[t.PCs[d]].NumOperands()
		if n == 0 {
			continue
		}
		dyns = append(dyns, d)
		siteCount += n * per
	}
	return dyns, siteCount
}
