package chisel

import (
	"math"
	"testing"

	"fastflip/internal/prog"
	"fastflip/internal/sens"
	"fastflip/internal/spec"
	"fastflip/internal/sym"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

func recorded(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// amps builds hand-specified amplification matrices for the fixture:
// scale has K(x->y) = 3; square has K(y->z) = 9, K(c->z) = 1.
func amps() []*sens.Amplification {
	return []*sens.Amplification{
		{K: [][]float64{{3}}},
		{K: [][]float64{{9, 1}}},
	}
}

func TestComposeEquation2Shape(t *testing.T) {
	tr := recorded(t)
	s, err := Compose(tr, amps())
	if err != nil {
		t.Fatal(err)
	}
	// Δ(z) ≤ 9·φ_{scale,y} + 1·φ_{square,z}; x is a program input and
	// assumed SDC-free, so no constant term.
	if got := s.Coefficient(0, 0, 0); got != 9 {
		t.Errorf("coefficient of scale's output = %v, want 9", got)
	}
	if got := s.Coefficient(0, 1, 0); got != 1 {
		t.Errorf("coefficient of square's output = %v, want 1", got)
	}
	if c := s.Final[0].Const(); c != 0 {
		t.Errorf("constant term = %v, want 0 (SDC-free inputs)", c)
	}
}

func TestBoundSingleErrorModel(t *testing.T) {
	tr := recorded(t)
	s, err := Compose(tr, amps())
	if err != nil {
		t.Fatal(err)
	}
	// An error introducing 0.5 into scale's output bounds z by 4.5.
	if got := s.Bound(0, []float64{0.5}); got[0] != 4.5 {
		t.Errorf("bound via scale = %v, want 4.5", got)
	}
	// The same magnitude in square's own output bounds z by 0.5.
	if got := s.Bound(1, []float64{0.5}); got[0] != 0.5 {
		t.Errorf("bound via square = %v, want 0.5", got)
	}
}

func TestBadThreshold(t *testing.T) {
	tr := recorded(t)
	s, err := Compose(tr, amps())
	if err != nil {
		t.Fatal(err)
	}
	eps := []float64{1.0}
	if s.Bad(1, []float64{0.5}, eps) {
		t.Error("0.5 through square flagged bad at eps = 1")
	}
	if !s.Bad(0, []float64{0.5}, eps) {
		t.Error("0.5 through scale (bound 4.5) not flagged bad at eps = 1")
	}
	if s.Bad(0, []float64{0}, []float64{0}) {
		t.Error("masked outcome flagged bad at eps = 0")
	}
	if !s.Bad(0, []float64{math.Inf(1)}, []float64{1e300}) {
		t.Error("conservative +Inf magnitude not flagged bad")
	}
}

func TestComposeMismatchedAmps(t *testing.T) {
	tr := recorded(t)
	if _, err := Compose(tr, amps()[:1]); err == nil {
		t.Error("Compose accepted wrong amplification count")
	}
}

// chainProgram builds n sections, each multiplying the same cell in place:
// section i computes v = v * 2 (input == output buffer), checking the
// in-place update semantics of the composition.
func chainProgram(t *testing.T, n int) *spec.Program {
	t.Helper()
	p := prog.New()
	main := prog.NewFunc("main")
	main.RoiBeg()
	for i := 0; i < n; i++ {
		main.SecBeg(i)
		main.Call("dbl")
		main.SecEnd(i)
	}
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())

	dbl := prog.NewFunc("dbl")
	dbl.Li(1, 0)
	dbl.Fld(0, 1, 0)
	dbl.Fli(1, 2)
	dbl.Fmul(0, 0, 1)
	dbl.Li(1, 0)
	dbl.Fst(0, 1, 0)
	dbl.Ret()
	p.MustAdd(dbl.MustBuild())

	linked, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	v := spec.Buffer{Name: "v", Addr: 0, Len: 1, Kind: spec.Float}
	secs := make([]spec.Section, n)
	for i := range secs {
		secs[i] = spec.Section{ID: i, Name: "dbl", Instances: []spec.InstanceIO{
			{Inputs: []spec.Buffer{v}, Outputs: []spec.Buffer{v}, Live: []spec.Buffer{v}},
		}}
	}
	return &spec.Program{
		Name: "chain", Linked: linked, MemWords: 4,
		Init:         func(m *vm.Machine) { m.Mem[0] = math.Float64bits(1) },
		Sections:     secs,
		FinalOutputs: []spec.Buffer{v},
	}
}

func TestComposeInPlaceChain(t *testing.T) {
	p := chainProgram(t, 4)
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]*sens.Amplification, 4)
	for i := range a {
		a[i] = &sens.Amplification{K: [][]float64{{2}}}
	}
	s, err := Compose(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	// φ introduced in section i is amplified by 2^(3-i) downstream.
	for i := 0; i < 4; i++ {
		want := math.Pow(2, float64(3-i))
		if got := s.Coefficient(0, i, 0); got != want {
			t.Errorf("coefficient of section %d = %v, want %v", i, got, want)
		}
	}
}

func TestComposeDeadOutputHasZeroCoefficient(t *testing.T) {
	// A section whose output is overwritten before reaching the final
	// output contributes nothing (FastFlip's declared-dataflow masking).
	p := chainProgram(t, 2)
	// Redeclare section 0's output as a scratch cell that section 1
	// overwrites entirely.
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	a := []*sens.Amplification{
		{K: [][]float64{{2}}},
		// Section 1 ignores its input: K = 0. Its own φ fully determines v.
		{K: [][]float64{{0}}},
	}
	s, err := Compose(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Coefficient(0, 0, 0); got != 0 {
		t.Errorf("dead upstream coefficient = %v, want 0", got)
	}
	if got := s.Coefficient(0, 1, 0); got != 1 {
		t.Errorf("final section coefficient = %v, want 1", got)
	}
}

func TestVarNaming(t *testing.T) {
	v := sym.Var{Inst: 3, Out: 1}
	if v.String() != "phi[3.1]" {
		t.Errorf("Var.String = %q", v.String())
	}
}

// TestBoundIgnoresOtherInstancesInfiniteCoefficient is the regression test
// for the NaN bound: an +Inf coefficient on another instance's φ must not
// enter the sum as +Inf × 0.
func TestBoundIgnoresOtherInstancesInfiniteCoefficient(t *testing.T) {
	e := sym.Zero().AddVar(sym.Var{Inst: 0, Out: 0}, math.Inf(1)).AddVar(sym.Var{Inst: 1, Out: 0}, 1)
	s := &Spec{Final: []*sym.Expr{e}}
	if got := s.Bound(1, []float64{1}); got[0] != 1 {
		t.Errorf("Bound(1, {1}) = %v, want [1]", got)
	}
	if !s.Bad(1, []float64{1}, []float64{0}) {
		t.Error("SDC of 1 through a unit coefficient not flagged bad at eps = 0")
	}
	if got := s.Bound(0, []float64{0}); got[0] != 0 {
		t.Errorf("Bound(0, {0}) = %v, want [0]: a zero magnitude adds nothing", got)
	}
	if got := s.Bound(0, []float64{1e-3}); !math.IsInf(got[0], 1) {
		t.Errorf("Bound(0, {1e-3}) = %v, want [+Inf]", got)
	}
}

// TestDiscreteChainBoundsStayFinite composes chains of Discrete sections.
// Five sections are the first chain whose upstream coefficient,
// DiscreteK^4, overflows to +Inf; every section's bound must still be a
// number, and any SDC must stay SDC-Bad at eps = 0.
func TestDiscreteChainBoundsStayFinite(t *testing.T) {
	for _, n := range []int{4, 5} {
		tr, err := trace.Record(chainProgram(t, n))
		if err != nil {
			t.Fatal(err)
		}
		a := make([]*sens.Amplification, n)
		for i := range a {
			a[i] = &sens.Amplification{K: [][]float64{{sens.DiscreteK}}}
		}
		s, err := Compose(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		if c := s.Coefficient(0, 0, 0); (n == 5) != math.IsInf(c, 1) {
			t.Fatalf("n=%d: upstream coefficient %v", n, c)
		}
		for i := 0; i < n; i++ {
			b := s.Bound(i, []float64{1e-3})[0]
			if math.IsNaN(b) || b <= 0 {
				t.Errorf("n=%d: bound via section %d = %v", n, i, b)
			}
			if !s.Bad(i, []float64{1e-3}, []float64{0}) {
				t.Errorf("n=%d: SDC in section %d not flagged bad", n, i)
			}
		}
	}
}
