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
	"sort"

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
	Key     ClassKey
	Class   isa.RegClass // register file of the operand
	Reg     uint8        // architectural register number
	Width   uint8        // burst width of the class's sites
	Members []uint64     // dynamic indices, ascending
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
	total := 0
	per := SitesPerOperand(opts.width())
	var ops []isa.Operand
	for d := lo; d < hi; d++ {
		in := t.Prog.Linked.Code[t.PCs[d]]
		ops = in.Operands(ops[:0])
		total += len(ops) * per
	}
	return total
}

// classify groups the sites of dynamic range [lo, hi) into equivalence
// classes. Without pruning every site becomes a singleton class (used by
// the pruning ablation).
func classify(t *trace.Trace, lo, hi uint64, opts Options) []*Class {
	prune := opts.Prune
	width := opts.width()
	per := SitesPerOperand(width)
	byKey := make(map[ClassKey]*Class)
	var classes []*Class
	var ops []isa.Operand
	// Static identity is a function of the pc alone; resolving it does a
	// binary search over function bounds, so cache it per pc instead of
	// recomputing per dynamic instruction.
	statics := make([]prog.StaticID, len(t.Prog.Linked.Code))
	haveStatic := make([]bool, len(statics))
	for d := lo; d < hi; d++ {
		pc := int(t.PCs[d])
		in := t.Prog.Linked.Code[pc]
		ops = in.Operands(ops[:0])
		if len(ops) == 0 {
			continue
		}
		if !haveStatic[pc] {
			statics[pc] = t.Prog.Linked.StaticIDOf(pc)
			haveStatic[pc] = true
		}
		static := statics[pc]
		for _, op := range ops {
			for bit := 0; bit < per; bit++ {
				key := ClassKey{Static: static, Role: op.Role, Bit: uint8(bit)}
				if !prune {
					classes = append(classes, &Class{
						Key: key, Class: op.Class, Reg: op.Reg, Width: uint8(width), Members: []uint64{d},
						Elided: opts.Masks != nil && opts.Masks.SiteElidable(pc, op, uint8(bit), uint8(width)),
					})
					continue
				}
				c := byKey[key]
				if c == nil {
					c = &Class{Key: key, Class: op.Class, Reg: op.Reg, Width: uint8(width)}
					c.Elided = opts.Masks != nil && opts.Masks.SiteElidable(pc, op, uint8(bit), uint8(width))
					byKey[key] = c
					classes = append(classes, c)
				}
				c.Members = append(c.Members, d)
			}
		}
	}
	sortClasses(classes)
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
	var ops []isa.Operand
	for d := t.ROIBeg + 1; d < t.ROIEnd; d++ {
		if t.InstanceAt(d) != nil {
			continue
		}
		in := t.Prog.Linked.Code[t.PCs[d]]
		ops = in.Operands(ops[:0])
		if len(ops) == 0 {
			continue
		}
		dyns = append(dyns, d)
		siteCount += len(ops) * per
	}
	return dyns, siteCount
}

func sortClasses(classes []*Class) {
	sort.Slice(classes, func(i, j int) bool {
		a, b := classes[i].Key, classes[j].Key
		if a.Static.Func != b.Static.Func {
			return a.Static.Func < b.Static.Func
		}
		if a.Static.Local != b.Static.Local {
			return a.Static.Local < b.Static.Local
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Bit != b.Bit {
			return a.Bit < b.Bit
		}
		// Singleton classes (pruning disabled) tie-break on the member.
		return classes[i].Members[0] < classes[j].Members[0]
	})
}
