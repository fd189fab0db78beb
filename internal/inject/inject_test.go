package inject

import (
	"context"
	"math"
	"testing"

	"fastflip/internal/isa"
	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

func recorded(t *testing.T) (*trace.Trace, *Injector) {
	t.Helper()
	tr, err := trace.Record(testprog.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return tr, &Injector{T: tr, Workers: 1}
}

// siteAt finds the dynamic index of the n-th ROI occurrence of op and
// returns a site on the requested operand role and bit.
func siteAt(t *testing.T, tr *trace.Trace, op isa.Op, occur int, role isa.OperandRole, bit uint8) sites.Site {
	t.Helper()
	seen := 0
	for d := tr.ROIBeg + 1; d < tr.ROIEnd; d++ {
		in := tr.Prog.Linked.Code[tr.PCs[d]]
		if in.Op != op {
			continue
		}
		if seen != occur {
			seen++
			continue
		}
		for _, o := range in.Operands(nil) {
			if o.Role == role {
				return sites.Site{Dyn: d, Operand: o, Bit: bit}
			}
		}
		t.Fatalf("instruction %v has no operand with role %v", op, role)
	}
	t.Fatalf("no occurrence %d of %v in ROI", occur, op)
	return sites.Site{}
}

func TestMonolithicSDCMagnitude(t *testing.T) {
	tr, inj := recorded(t)
	// Flip the sign bit of scale's multiply result: y becomes -4.5, so
	// z = y² + c is unchanged (squaring masks the sign!).
	site := siteAt(t, tr, isa.FMUL, 0, isa.OperandDst, 63)
	m := tr.Start.Clone()
	out, cost := inj.Monolithic(m, site)
	if out.Kind != metrics.Masked {
		t.Errorf("sign flip before squaring: %+v, want masked", out)
	}
	if cost == 0 {
		t.Error("experiment reported zero cost")
	}

	// Flip a mantissa bit instead: z must silently change.
	site.Bit = 40
	out, _ = inj.Monolithic(m, site)
	if out.Kind != metrics.SDC || out.MaxMagnitude() == 0 {
		t.Errorf("mantissa flip: %+v, want SDC", out)
	}
}

func TestMonolithicCrashDetected(t *testing.T) {
	tr, inj := recorded(t)
	// Flip a high bit of the store's base register: wild address, OOB.
	site := siteAt(t, tr, isa.FST, 0, isa.OperandSrcB, 40)
	m := tr.Start.Clone()
	out, _ := inj.Monolithic(m, site)
	if out.Kind != metrics.Detected || out.Reason != metrics.DetectCrash {
		t.Errorf("wild store: %+v, want detected crash", out)
	}
}

func TestSectionExperimentSeesLocalSDC(t *testing.T) {
	tr, inj := recorded(t)
	inst := tr.Instances[0] // scale
	site := siteAt(t, tr, isa.FMUL, 0, isa.OperandDst, 40)
	if !inst.Contains(site.Dyn) {
		t.Fatal("site not inside the scale section")
	}
	m := tr.Start.Clone()
	out, _, _ := inj.Section(m, inst, site, false)
	if out.Kind != metrics.SDC {
		t.Fatalf("section outcome: %+v", out)
	}
	// The magnitude is the flip's effect on y itself (bit 40 of 4.5).
	want := math.Abs(flipBit(testprog.WantY(), 40) - testprog.WantY())
	if math.Abs(out.Magnitudes[0]-want) > 1e-12 {
		t.Errorf("magnitude = %v, want %v", out.Magnitudes[0], want)
	}
}

func TestSectionSideEffectIsConservative(t *testing.T) {
	tr, inj := recorded(t)
	inst := tr.Instances[0]
	// Flip bit 1 of the store base register (r1 = 0 -> 2): scale writes y
	// into z's address — a live side effect outside its declared outputs.
	site := siteAt(t, tr, isa.FST, 0, isa.OperandSrcB, 1)
	m := tr.Start.Clone()
	out, _, _ := inj.Section(m, inst, site, false)
	if out.Kind != metrics.SDC || !math.IsInf(out.MaxMagnitude(), 1) {
		t.Errorf("side effect outcome: %+v, want conservative +Inf SDC", out)
	}
}

func TestSectionTimeoutDetected(t *testing.T) {
	// A looping section: corrupting the loop counter extends the section
	// beyond 5x nominal.
	p := prog.New()
	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Li(1, 0)
	main.Li(2, 4)
	main.Label("loop")
	main.Addi(1, 1, 1)
	main.Blt(1, 2, "loop")
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())
	linked, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.Program{
		Name: "loopy", Linked: linked, MemWords: 4,
		Sections:     []spec.Section{{ID: 0, Name: "s", Instances: []spec.InstanceIO{{}}}},
		FinalOutputs: []spec.Buffer{{Name: "o", Addr: 0, Len: 1, Kind: spec.Int}},
	}
	tr, err := trace.Record(sp)
	if err != nil {
		t.Fatal(err)
	}
	inj := &Injector{T: tr, Workers: 1}
	// Flip a high bit of the loop bound register r2 right as the branch
	// reads it: the loop now runs ~2^40 iterations.
	site := siteAt(t, tr, isa.BLT, 0, isa.OperandSrcB, 40)
	m := tr.Start.Clone()
	out, _, _ := inj.Section(m, tr.Instances[0], site, false)
	if out.Kind != metrics.Detected || out.Reason != metrics.DetectTimeout {
		t.Errorf("runaway loop: %+v, want detected timeout", out)
	}
}

func TestSourceFlipPersists(t *testing.T) {
	// A source-operand flip corrupts the architectural register, not just
	// the instruction's view: later readers of the same register see it.
	p := prog.New()
	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Li(1, 1)
	main.Li(2, 0)
	main.Add(3, 1, 1) // first read of r1
	main.St(3, 2, 0)
	main.St(1, 2, 1) // second read of r1
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())
	linked, err := p.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	out1 := spec.Buffer{Name: "sum", Addr: 0, Len: 1, Kind: spec.Int}
	out2 := spec.Buffer{Name: "copy", Addr: 1, Len: 1, Kind: spec.Int}
	sp := &spec.Program{
		Name: "persist", Linked: linked, MemWords: 4,
		Sections: []spec.Section{{ID: 0, Name: "s", Instances: []spec.InstanceIO{
			{Outputs: []spec.Buffer{out1, out2}},
		}}},
		FinalOutputs: []spec.Buffer{out1, out2},
	}
	tr, err := trace.Record(sp)
	if err != nil {
		t.Fatal(err)
	}
	inj := &Injector{T: tr, Workers: 1}
	site := siteAt(t, tr, isa.ADD, 0, isa.OperandSrcA, 4) // r1: 1 -> 17
	m := tr.Start.Clone()
	out, _ := inj.Monolithic(m, site)
	if out.Kind != metrics.SDC {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Magnitudes[0] != 32 { // sum: 2 -> 34
		t.Errorf("sum magnitude = %v, want 32", out.Magnitudes[0])
	}
	if out.Magnitudes[1] != 16 { // copy: 1 -> 17 (the corruption persisted)
		t.Errorf("copy magnitude = %v, want 16 (source flip must persist)", out.Magnitudes[1])
	}
}

func TestRunMonolithicParallelMatchesSerial(t *testing.T) {
	tr, _ := recorded(t)
	classes := sites.Global(tr, sites.Options{Prune: true})
	serial := &Injector{T: tr, Workers: 1}
	parallel := &Injector{T: tr, Workers: 4}
	outS, statsS := serial.RunMonolithic(context.Background(), classes)
	outP, statsP := parallel.RunMonolithic(context.Background(), classes)
	if statsS.Experiments != len(classes) || statsP.Experiments != len(classes) {
		t.Fatalf("experiment counts: %d, %d, want %d", statsS.Experiments, statsP.Experiments, len(classes))
	}
	if statsS.SimInstrs != statsP.SimInstrs {
		t.Errorf("cost differs: %d vs %d", statsS.SimInstrs, statsP.SimInstrs)
	}
	for i := range outS {
		if outS[i].Kind != outP[i].Kind || outS[i].MaxMagnitude() != outP[i].MaxMagnitude() {
			t.Fatalf("class %d: serial %+v, parallel %+v", i, outS[i], outP[i])
		}
	}
}

func TestRunSectionCoversAllClasses(t *testing.T) {
	tr, inj := recorded(t)
	for _, inst := range tr.Instances {
		classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
		outs, stats := inj.RunSection(context.Background(), inst, classes)
		if len(outs) != len(classes) || stats.Experiments != len(classes) {
			t.Fatalf("instance %d: %d outcomes for %d classes", inst.Sec, len(outs), len(classes))
		}
	}
}

func TestRunMonolithicCancelled(t *testing.T) {
	tr, inj := recorded(t)
	classes := sites.Global(tr, sites.Options{Prune: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the campaign must run zero experiments
	outs, stats := inj.RunMonolithic(ctx, classes)
	if len(outs) != len(classes) {
		t.Fatalf("outcome slice length %d, want %d", len(outs), len(classes))
	}
	if stats.Experiments != 0 || stats.SimInstrs != 0 {
		t.Errorf("cancelled campaign ran %d experiments (%d instrs), want none",
			stats.Experiments, stats.SimInstrs)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Experiments: 2, SimInstrs: 100}
	a.Add(Stats{Experiments: 3, SimInstrs: 50})
	if a.Experiments != 5 || a.SimInstrs != 150 {
		t.Errorf("Add = %+v", a)
	}
}

func flipBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << bit))
}
