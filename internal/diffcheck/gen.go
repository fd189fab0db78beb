// Package diffcheck is the differential verification subsystem: a seeded
// generator of well-formed minilang pipelines and of edits to them, plus
// oracles that cross-check the analysis pipeline against itself.
//
// The generator plays the role Csmith plays for C compilers. Each seed
// deterministically yields a multi-section program (float kernels with
// loops, branches, index reversals, and optionally a discrete integer
// kernel) whose ground truth the oracles can afford to compute; the four
// oracles in oracle.go then assert the paper's equivalence claims on it:
// composed-bound soundness against the co-run ground truth, incremental
// re-analysis vs from-scratch, crash/resume convergence, and agreement of
// the production replay engine with the reference engine (reference.go). Failures shrink (shrink.go) to a minimal
// reproducer written to a corpus directory (corpus.go).
//
// Soundness needs care: the sensitivity stage estimates an *empirical*
// Lipschitz factor, which genuinely under-approximates nonlinear kernels.
// The soundness family (FamilySound) therefore generates only elementwise
// affine float pipelines with one uniform nonzero literal coefficient per
// (input buffer → output) edge and full-range loops: for those the
// empirical K equals the true |coefficient| on every sample, every
// section output feeds the final output through a nonzero-coefficient
// chain, and the composed bound provably covers the co-run truth at ε = 0.
// The mixed family (FamilyMixed) adds discrete integer kernels and is used
// by the determinism oracles, which compare two runs of the same analysis
// and need no soundness guarantee.
package diffcheck

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"fastflip/internal/lang"
	"fastflip/internal/mix"
	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

// Family selects the generator's program family.
type Family int

const (
	// FamilySound generates elementwise affine float pipelines for which
	// the composed SDC bound is provably sound at ε = 0.
	FamilySound Family = iota
	// FamilyMixed additionally generates discrete integer kernels and
	// int/float conversions; used by the run-vs-run determinism oracles.
	FamilyMixed
)

func (f Family) String() string {
	if f == FamilySound {
		return "sound"
	}
	return "mixed"
}

// Prog is the generator's IR: a buffer-chained pipeline of elementwise
// kernels. It is the unit the edit generator and the shrinker operate on,
// and what a reproducer serializes. Buffer ids are stable across edits:
// buffer 0 is the program input, every section writes its own fresh
// buffer, and addresses are derived from the id alone.
type Prog struct {
	Seed   uint64 `json:"seed"`
	BufLen int    `json:"buf_len"`
	// NextBuf is the first unused buffer id (edits allocate from here).
	NextBuf int `json:"next_buf"`
	// Final is the buffer id compared as the program's final output.
	Final int `json:"final"`
	// IntBufs lists buffer ids holding integers. Membership is decided
	// when the buffer is created and survives shrinking (a consumer keeps
	// reading `float(b[i])` even if the producing section was dropped).
	IntBufs []int `json:"int_bufs,omitempty"`
	Secs    []Sec `json:"sections"`
}

// Sec is one section: a kernel computing, elementwise over [0, Bound),
//
//	out[i] = Σ_t Coef_t · src_t[σ_t(i)]  (+ additive index term)
//
// or, for Discrete sections, an integer modular kernel.
type Sec struct {
	Name string `json:"name"`
	Out  int    `json:"out"`
	// Bound is the loop's upper bound; FamilySound always generates the
	// full BufLen (partial bounds arrive only through edits).
	Bound int    `json:"bound"`
	Terms []Term `json:"terms"`
	// AddMode selects the additive index term: 0 a plain constant AddA,
	// 1 a branch-selected constant (AddA, or AddB when i < Bound/2),
	// 2 the index-scaled term float(i)·AddA.
	AddMode int     `json:"add_mode"`
	AddA    float64 `json:"add_a"`
	AddB    float64 `json:"add_b,omitempty"`
	// Dead adds a semantically inert statement (the preserving edit).
	Dead bool `json:"dead,omitempty"`
	// DeadMask adds an inert bitwise chain (AND/OR/shift over a register
	// that is never read): every bit of it is dead, so the static masking
	// tier gets whole statements to prove elidable. Safe in FamilySound —
	// dead code carries no soundness weight.
	DeadMask bool `json:"dead_mask,omitempty"`

	// Discrete marks an integer modular kernel
	// out[i] = (trunc(src) · IMul + IAdd) mod IMod, declared Discrete to
	// the analysis. Terms[0] supplies the source buffer.
	Discrete bool `json:"discrete,omitempty"`
	IMul     int  `json:"imul,omitempty"`
	IAdd     int  `json:"iadd,omitempty"`
	IMod     int  `json:"imod,omitempty"`
	// MaskAnd/MaskOr (MaskAnd nonzero) insert a live absorption chain
	// v = v & MaskAnd; v = v | MaskOr before the modulus: bits above
	// MaskAnd and under MaskOr are absorbed, so faults there are provably
	// masked. Trunc (nonzero) truncates the store — out[i] = v & Trunc —
	// making the ignored high bits dead all the way upstream.
	MaskAnd int `json:"mask_and,omitempty"`
	MaskOr  int `json:"mask_or,omitempty"`
	Trunc   int `json:"trunc,omitempty"`
}

// Term is one dataflow edge: Coef · src[i] (or src[Bound-1-i] when Rev).
type Term struct {
	Src  int     `json:"src"`
	Coef float64 `json:"coef"`
	Rev  bool    `json:"rev,omitempty"`
}

// rng is a tiny deterministic generator over mix.Splitmix64. It is
// self-contained so generated programs are stable across Go releases.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: mix.Splitmix64(seed)} }

func (r *rng) next() uint64 {
	r.state++
	return mix.Splitmix64(r.state)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) bool() bool { return r.next()&1 == 1 }

// coefPalette holds the uniform per-edge coefficients; all nonzero, with
// magnitudes spanning [0.25, 4] so both attenuating and amplifying edges
// occur. Zero is deliberately absent: a zero coefficient disconnects the
// dataflow an injected error actually follows.
var coefPalette = []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3, 4}

func (r *rng) coef() float64 {
	c := coefPalette[r.intn(len(coefPalette))]
	if r.bool() {
		c = -c
	}
	return c
}

// addPalette holds additive constants (zero allowed: they cancel in
// differences and carry no soundness weight).
var addPalette = []float64{0, 0.125, 0.5, 1, 2.5, -0.75, -2}

func (r *rng) addConst() float64 { return addPalette[r.intn(len(addPalette))] }

// Generate deterministically builds a program for seed within the family.
func Generate(seed uint64, fam Family) *Prog {
	r := newRNG(seed)
	g := &Prog{
		Seed:   seed,
		BufLen: 2 + r.intn(3), // 2..4
	}
	nsec := 2 + r.intn(3) // 2..4
	discreteAt := -1
	if fam == FamilyMixed && nsec > 2 && r.bool() {
		// One discrete kernel somewhere strictly inside the pipeline.
		discreteAt = 1 + r.intn(nsec-2)
	}
	for j := 0; j < nsec; j++ {
		out := j + 1
		s := Sec{
			Name:  fmt.Sprintf("k%d", out),
			Out:   out,
			Bound: g.BufLen,
		}
		// The chain edge: every section reads its predecessor's output,
		// so every buffer has a nonzero-coefficient path to the final.
		chainSrc := j
		s.Terms = append(s.Terms, Term{Src: chainSrc, Coef: r.coef(), Rev: r.bool()})
		if j == discreteAt {
			s.Discrete = true
			s.IMul = 2 + r.intn(5)
			s.IAdd = r.intn(10)
			s.IMod = 5 + r.intn(13)
			if r.bool() {
				// Contiguous low mask (15..255) plus a small OR constant:
				// absorbed bits give the elision tier real work.
				s.MaskAnd = 1<<(4+r.intn(5)) - 1
				s.MaskOr = r.intn(8)
			}
			if r.bool() {
				s.Trunc = 1<<(2+r.intn(3)) - 1
			}
			g.IntBufs = append(g.IntBufs, out)
		} else {
			// An optional skip edge from an earlier distinct buffer
			// exercises chisel's multi-path summation.
			if j > 0 && r.bool() {
				extra := r.intn(j) // in [0, j): always distinct from chainSrc
				s.Terms = append(s.Terms, Term{Src: extra, Coef: r.coef(), Rev: r.bool()})
			}
			s.AddMode = r.intn(3)
			s.AddA = r.addConst()
			if s.AddMode == 1 {
				s.AddB = r.addConst()
			} else if s.AddMode == 2 {
				// Index-scaled terms need a nonzero scale to matter.
				s.AddA = 0.5
			}
		}
		// One kernel in four carries the inert mask chain, in both
		// families — provably-elidable statements everywhere the oracles
		// look.
		s.DeadMask = r.intn(4) == 0
		g.Secs = append(g.Secs, s)
	}
	g.NextBuf = nsec + 1
	g.Final = nsec
	return g
}

// intBuf reports whether buffer id holds integers.
func (g *Prog) intBuf(id int) bool {
	for _, b := range g.IntBufs {
		if b == id {
			return true
		}
	}
	return false
}

// bufName returns the stable source-level name of a buffer.
func bufName(id int) string { return fmt.Sprintf("b%d", id) }

// addr returns the memory base address of a buffer.
func (g *Prog) addr(id int) int { return id * g.BufLen }

// MemWords returns the memory size of the built program.
func (g *Prog) MemWords() int { return g.NextBuf*g.BufLen + 4 }

// Name returns the spec.Program name, derived from the seed.
func (g *Prog) Name() string { return fmt.Sprintf("dc%016x", g.Seed) }

func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// refExpr renders a read of src at loop index i (reversed within the
// section's bound when rev), converting integer buffers to float.
func (g *Prog) refExpr(src int, rev bool, bound int, asFloat bool) string {
	idx := "i"
	if rev {
		idx = fmt.Sprintf("%d - i", bound-1)
	}
	e := fmt.Sprintf("%s[%s]", bufName(src), idx)
	if asFloat && g.intBuf(src) {
		e = fmt.Sprintf("float(%s)", e)
	}
	return e
}

// bufsOf returns the sorted distinct buffer ids a section touches
// (sources first semantics-wise, but sorted by id for stable rendering).
func bufsOf(s Sec) []int {
	seen := map[int]bool{s.Out: true}
	ids := []int{s.Out}
	for _, t := range s.Terms {
		if !seen[t.Src] {
			seen[t.Src] = true
			ids = append(ids, t.Src)
		}
	}
	sort.Ints(ids)
	return ids
}

// Source renders the program as minilang source, one kernel per section.
func (g *Prog) Source() string {
	var b strings.Builder
	for _, s := range g.Secs {
		g.renderKernel(&b, s)
		b.WriteString("\n")
	}
	return b.String()
}

func (g *Prog) renderKernel(b *strings.Builder, s Sec) {
	fmt.Fprintf(b, "kernel %s(", s.Name)
	for i, id := range bufsOf(s) {
		if i > 0 {
			b.WriteString(", ")
		}
		kind := "float"
		if g.intBuf(id) {
			kind = "int"
		}
		fmt.Fprintf(b, "%s: %s[%d]", bufName(id), kind, g.BufLen)
	}
	b.WriteString(") {\n")
	if s.Dead {
		// Semantically inert: the register it initializes is never read.
		b.WriteString("    var dz: float = 1.25;\n")
	}
	if s.DeadMask {
		// Inert bitwise chain: dm is never read, so every bit of every
		// intermediate is dead and the masking tier elides the whole chain.
		b.WriteString("    var dm: int = 202;\n")
		b.WriteString("    dm = dm & 60;\n")
		b.WriteString("    dm = dm | 5;\n")
		b.WriteString("    dm = dm << 3;\n")
	}
	if s.Discrete {
		g.renderDiscreteBody(b, s)
	} else {
		g.renderFloatBody(b, s)
	}
	b.WriteString("}\n")
}

func (g *Prog) renderFloatBody(b *strings.Builder, s Sec) {
	fmt.Fprintf(b, "    for i = 0 to %d {\n", s.Bound)
	var terms []string
	for _, t := range s.Terms {
		terms = append(terms, fmt.Sprintf("%s * %s", formatFloat(t.Coef), g.refExpr(t.Src, t.Rev, s.Bound, true)))
	}
	switch s.AddMode {
	case 1:
		fmt.Fprintf(b, "        var g: float = %s;\n", formatFloat(s.AddA))
		fmt.Fprintf(b, "        if i < %d {\n            g = %s;\n        }\n", s.Bound/2, formatFloat(s.AddB))
		terms = append(terms, "g")
	case 2:
		terms = append(terms, fmt.Sprintf("float(i) * %s", formatFloat(s.AddA)))
	default:
		if s.AddA != 0 {
			terms = append(terms, formatFloat(s.AddA))
		}
	}
	fmt.Fprintf(b, "        %s[i] = %s;\n", bufName(s.Out), strings.Join(terms, " + "))
	b.WriteString("    }\n")
}

func (g *Prog) renderDiscreteBody(b *strings.Builder, s Sec) {
	src := s.Terms[0]
	fmt.Fprintf(b, "    for i = 0 to %d {\n", s.Bound)
	ref := g.refExpr(src.Src, src.Rev, s.Bound, false)
	if g.intBuf(src.Src) {
		fmt.Fprintf(b, "        var v: int = %s;\n", ref)
	} else {
		fmt.Fprintf(b, "        var v: int = int(%s * 8.0);\n", ref)
	}
	fmt.Fprintf(b, "        v = v * %d;\n", s.IMul)
	fmt.Fprintf(b, "        v = v + %d;\n", s.IAdd)
	if s.MaskAnd != 0 {
		fmt.Fprintf(b, "        v = v & %d;\n", s.MaskAnd)
		fmt.Fprintf(b, "        v = v | %d;\n", s.MaskOr)
	}
	if s.Trunc != 0 {
		fmt.Fprintf(b, "        v = v %% %d;\n", s.IMod)
		fmt.Fprintf(b, "        %s[i] = v & %d;\n", bufName(s.Out), s.Trunc)
	} else {
		fmt.Fprintf(b, "        %s[i] = v %% %d;\n", bufName(s.Out), s.IMod)
	}
	b.WriteString("    }\n")
}

// InputValues returns the deterministic contents of the input buffer;
// magnitudes stay in [0.5, 2.25] so no element is zero or huge.
func (g *Prog) InputValues() []float64 {
	r := newRNG(g.Seed ^ 0x1e9e1) // distinct stream from the structure RNG
	vals := make([]float64, g.BufLen)
	for i := range vals {
		frac := float64(r.next()>>11) / (1 << 53)
		v := 0.5 + 1.75*frac
		if r.bool() {
			v = -v
		}
		vals[i] = v
	}
	return vals
}

// Program compiles and assembles the IR into an analyzable program.
func (g *Prog) Program() (*spec.Program, error) {
	binds := lang.Bindings{}
	for id := 0; id < g.NextBuf; id++ {
		binds[bufName(id)] = g.addr(id)
	}
	fns, err := lang.Compile(g.Source(), binds)
	if err != nil {
		return nil, fmt.Errorf("diffcheck: seed %#x: %w", g.Seed, err)
	}

	mod := prog.New()
	main := prog.NewFunc("main")
	main.RoiBeg()
	for i, s := range g.Secs {
		main.SecBeg(i)
		main.Call(s.Name)
		main.SecEnd(i)
	}
	main.RoiEnd()
	main.Halt()
	mainFn, err := main.Build()
	if err != nil {
		return nil, fmt.Errorf("diffcheck: seed %#x: %w", g.Seed, err)
	}
	if err := mod.Add(mainFn); err != nil {
		return nil, err
	}
	for _, fn := range fns {
		if err := mod.Add(fn); err != nil {
			return nil, err
		}
	}
	linked, err := mod.Link("main")
	if err != nil {
		return nil, fmt.Errorf("diffcheck: seed %#x: %w", g.Seed, err)
	}

	buffer := func(id int) spec.Buffer {
		kind := spec.Float
		if g.intBuf(id) {
			kind = spec.Int
		}
		return spec.Buffer{Name: bufName(id), Addr: g.addr(id), Len: g.BufLen, Kind: kind}
	}
	live := make([]spec.Buffer, 0, g.NextBuf)
	for id := 0; id < g.NextBuf; id++ {
		live = append(live, buffer(id))
	}

	sections := make([]spec.Section, len(g.Secs))
	for i, s := range g.Secs {
		var inputs []spec.Buffer
		for _, id := range bufsOf(s) {
			if id != s.Out {
				inputs = append(inputs, buffer(id))
			}
		}
		sections[i] = spec.Section{
			ID:       i,
			Name:     s.Name,
			Discrete: s.Discrete,
			Instances: []spec.InstanceIO{{
				Inputs:  inputs,
				Outputs: []spec.Buffer{buffer(s.Out)},
				Live:    live,
			}},
		}
	}

	vals := g.InputValues()
	p := &spec.Program{
		Name:     g.Name(),
		Version:  "diffcheck",
		Linked:   linked,
		MemWords: g.MemWords(),
		Init: func(m *vm.Machine) {
			for i, v := range vals {
				m.Mem[i] = math.Float64bits(v)
			}
		},
		Sections:     sections,
		FinalOutputs: []spec.Buffer{buffer(g.Final)},
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("diffcheck: seed %#x: generated invalid program: %w", g.Seed, err)
	}
	return p, nil
}

// Clone deep-copies the IR.
func (g *Prog) Clone() *Prog {
	c := *g
	c.IntBufs = append([]int(nil), g.IntBufs...)
	c.Secs = append([]Sec(nil), g.Secs...)
	for i := range c.Secs {
		c.Secs[i].Terms = append([]Term(nil), g.Secs[i].Terms...)
	}
	return &c
}
