package sens

import (
	"math"
	"testing"

	"fastflip/internal/prog"
	"fastflip/internal/spec"
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

func TestLinearSectionAmplification(t *testing.T) {
	tr := recorded(t)
	// scale: y = 3x, so K(x -> y) is exactly 3 for any perturbation.
	amp, stats := Analyze(tr, tr.Instances[0], DefaultConfig())
	if stats.Runs == 0 || stats.SimInstrs == 0 {
		t.Fatalf("no sensitivity runs recorded: %+v", stats)
	}
	k := amp.K[0][0]
	if math.Abs(k-3) > 1e-9 {
		t.Errorf("K(x->y) = %v, want 3", k)
	}
}

func TestNonlinearSectionAmplification(t *testing.T) {
	tr := recorded(t)
	// square: z = y² + c with y = 4.5, so K(y -> z) = |2y ± φ| ≈ 9.
	cfg := DefaultConfig()
	cfg.Samples = 256
	amp, _ := Analyze(tr, tr.Instances[1], cfg)
	ky := amp.K[0][0]
	if ky < 8.9 || ky > 9.02 {
		t.Errorf("K(y->z) = %v, want ≈ 9 (2·y)", ky)
	}
	// c enters additively: K(c -> z) = 1.
	kc := amp.K[0][1]
	if math.Abs(kc-1) > 1e-6 {
		t.Errorf("K(c->z) = %v, want 1", kc)
	}
}

func TestAmplificationIsConservativeForSmallSamples(t *testing.T) {
	tr := recorded(t)
	// Fewer samples may under-estimate, but never exceed the analytic
	// maximum |2y| + φmax.
	cfg := DefaultConfig()
	cfg.Samples = 8
	amp, _ := Analyze(tr, tr.Instances[1], cfg)
	limit := 2*testprog.WantY() + cfg.PhiMax
	if amp.K[0][0] > limit {
		t.Errorf("K estimate %v exceeds analytic bound %v", amp.K[0][0], limit)
	}
}

func TestDiscreteSection(t *testing.T) {
	p := testprog.Pipeline()
	p.Sections[1].Discrete = true
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	amp, stats := Analyze(tr, tr.Instances[1], DefaultConfig())
	if stats.Runs != 0 {
		t.Errorf("discrete section ran %d perturbations", stats.Runs)
	}
	for _, row := range amp.K {
		for _, k := range row {
			if k != DiscreteK {
				t.Errorf("discrete K = %v, want %v", k, DiscreteK)
			}
		}
	}
}

func TestZeroSamplesYieldZeroMatrix(t *testing.T) {
	tr := recorded(t)
	amp, stats := Analyze(tr, tr.Instances[0], Config{Samples: 0, PhiMax: 0.01})
	if stats.Runs != 0 || amp.K[0][0] != 0 {
		t.Errorf("zero-sample analysis: %+v, K = %v", stats, amp.K)
	}
}

func TestIntegerInputsNotPerturbed(t *testing.T) {
	p := testprog.Pipeline()
	// Declare the square section's c input as integer: it must be skipped.
	p.Sections[1].Instances[0].Inputs[1].Kind = spec.Int
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	amp, _ := Analyze(tr, tr.Instances[1], DefaultConfig())
	if amp.K[0][1] != 0 {
		t.Errorf("integer input was perturbed: K = %v", amp.K[0][1])
	}
	if amp.K[0][0] == 0 {
		t.Error("float input was not perturbed")
	}
}

// TestEmptyFloatInputDrawsNothing declares a zero-length float input (which
// spec.Validate accepts) in front of the square section's c input. The
// empty input must draw no samples and keep its K column 0, and c must
// see the same RNG stream, hence the same K, as without it; the batched
// estimator and the reference must agree exactly.
func TestEmptyFloatInputDrawsNothing(t *testing.T) {
	p := testprog.Pipeline()
	in := &p.Sections[1].Instances[0].Inputs
	empty := spec.Buffer{Name: "e", Addr: testprog.AddrC, Len: 0, Kind: spec.Float}
	*in = []spec.Buffer{(*in)[0], empty, (*in)[1]}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	amp, stats := Analyze(tr, tr.Instances[1], cfg)
	ref, refStats := analyzeReference(tr, tr.Instances[1], cfg)
	if stats != refStats {
		t.Errorf("stats %+v, reference %+v", stats, refStats)
	}
	for ii := range amp.K[0] {
		if math.Float64bits(amp.K[0][ii]) != math.Float64bits(ref.K[0][ii]) {
			t.Errorf("K[0][%d] = %v, reference %v", ii, amp.K[0][ii], ref.K[0][ii])
		}
	}
	plainTr := recorded(t)
	plain, _ := Analyze(plainTr, plainTr.Instances[1], cfg)
	if amp.K[0][1] != 0 || amp.K[0][0] != plain.K[0][0] || amp.K[0][2] != plain.K[0][1] {
		t.Errorf("K = %v, want [%v 0 %v]", amp.K[0], plain.K[0][0], plain.K[0][1])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	tr := recorded(t)
	a1, _ := Analyze(tr, tr.Instances[1], DefaultConfig())
	a2, _ := Analyze(tr, tr.Instances[1], DefaultConfig())
	if a1.K[0][0] != a2.K[0][0] || a1.K[0][1] != a2.K[0][1] {
		t.Error("sensitivity estimates are not reproducible")
	}
}

func TestDistinctInstancesDrawDistinctStreams(t *testing.T) {
	tr := recorded(t)
	// The regression this guards: seeding with cfg.Seed ^ BegDyn gave two
	// instances with equal BegDyn identical perturbation streams. Identity
	// must separate streams even at a shared dynamic position.
	a := &trace.Instance{Sec: 0, Occur: 0, BegDyn: 1000}
	b := &trace.Instance{Sec: 1, Occur: 0, BegDyn: 1000}
	c := &trace.Instance{Sec: 0, Occur: 1, BegDyn: 1000}
	cfg := DefaultConfig()
	sa, sb, sc := streamSeed(cfg.Seed, a), streamSeed(cfg.Seed, b), streamSeed(cfg.Seed, c)
	if sa == sb || sa == sc || sb == sc {
		t.Fatalf("instances share an RNG seed: sec0/occ0=%d sec1/occ0=%d sec0/occ1=%d", sa, sb, sc)
	}
	// And the real instances of the pipeline trace must differ too.
	s0 := streamSeed(cfg.Seed, tr.Instances[0])
	s1 := streamSeed(cfg.Seed, tr.Instances[1])
	if s0 == s1 {
		t.Fatalf("trace instances share an RNG seed: %d", s0)
	}
}

func TestSeedVariesEstimate(t *testing.T) {
	tr := recorded(t)
	cfg1 := DefaultConfig()
	cfg1.Samples = 4
	cfg2 := cfg1
	cfg2.Seed = 99
	a1, _ := Analyze(tr, tr.Instances[1], cfg1)
	a2, _ := Analyze(tr, tr.Instances[1], cfg2)
	if a1.K[0][0] == a2.K[0][0] {
		t.Log("different seeds produced identical estimates (possible but unlikely)")
	}
}

// steerProgram is one section over three float inputs whose perturbation
// can stop it early. An a[0] raised by more than 0.009 branches to an
// out-of-bounds load (a crash); a b[1] raised by more than 0.009 branches
// into an endless loop (the sampling timeout); an a[1] raised at all takes
// a second, finishing path, so replicas leave the batch Running too. c
// enters y[1] squared, so its estimate depends on exactly which
// perturbations the RNG draws, and z = sqrt(c-1) is NaN, an infinite
// difference, whenever c is lowered.
func steerProgram() *spec.Program {
	const addrA, addrB, addrC, addrY, addrZ = 0, 2, 4, 6, 8
	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Call("steer")
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()

	f := prog.NewFunc("steer")
	f.Li(1, 0)
	f.Fld(0, 1, addrA)
	f.Fld(1, 1, addrA+1)
	f.Fld(2, 1, addrB)
	f.Fld(3, 1, addrB+1)
	f.Fld(4, 1, addrC)
	f.Fli(8, 1.009)
	f.Fblt(8, 0, "crash")
	f.Fblt(8, 3, "spin")
	f.Fli(9, 1)
	f.Fblt(9, 1, "alt")
	f.Fadd(6, 0, 2)
	f.Jmp("store")
	f.Label("alt")
	f.Fmul(6, 0, 2)
	f.Label("store")
	f.Fst(6, 1, addrY)
	f.Fmul(7, 4, 4)
	f.Fadd(7, 7, 1)
	f.Fadd(7, 7, 3)
	f.Fst(7, 1, addrY+1)
	f.Fsub(5, 4, 9)
	f.Fsqrt(5, 5)
	f.Fst(5, 1, addrZ)
	f.Ret()
	f.Label("crash")
	f.Li(2, 1<<40)
	f.Ld(3, 2, 0)
	f.Label("spin")
	f.Jmp("spin")

	p := prog.New()
	p.MustAdd(main.MustBuild())
	p.MustAdd(f.MustBuild())
	linked, err := p.Link("main")
	if err != nil {
		panic(err)
	}
	a := spec.Buffer{Name: "a", Addr: addrA, Len: 2, Kind: spec.Float}
	b := spec.Buffer{Name: "b", Addr: addrB, Len: 2, Kind: spec.Float}
	c := spec.Buffer{Name: "c", Addr: addrC, Len: 1, Kind: spec.Float}
	y := spec.Buffer{Name: "y", Addr: addrY, Len: 2, Kind: spec.Float}
	z := spec.Buffer{Name: "z", Addr: addrZ, Len: 1, Kind: spec.Float}
	return &spec.Program{
		Name:     "steer",
		Version:  "none",
		Linked:   linked,
		MemWords: 16,
		Init: func(m *vm.Machine) {
			for a := addrA; a < addrY; a++ {
				m.Mem[a] = math.Float64bits(1)
			}
		},
		Sections: []spec.Section{
			{ID: 0, Name: "steer", Instances: []spec.InstanceIO{
				{Inputs: []spec.Buffer{a, b, c}, Outputs: []spec.Buffer{y, z}, Live: []spec.Buffer{a, b, c, y, z}},
			}},
		},
		FinalOutputs: []spec.Buffer{y, z},
	}
}

// sameEstimate reports whether two estimates agree bit for bit.
func sameEstimate(a, b *Amplification, sa, sb Stats) bool {
	if sa != sb || len(a.K) != len(b.K) {
		return false
	}
	for oi := range a.K {
		if len(a.K[oi]) != len(b.K[oi]) {
			return false
		}
		for ii := range a.K[oi] {
			if math.Float64bits(a.K[oi][ii]) != math.Float64bits(b.K[oi][ii]) {
				return false
			}
		}
	}
	return true
}

// TestBatchedSensBreakMatchesReference drives the early stop of an input:
// a sample that crashes or times out partway through a's and b's samples
// makes their column DiscreteK, counts that sample's run and instructions
// but none after it, and leaves the RNG just after its draws, so b's and
// c's samples are the scalar estimator's. Sample counts above one batch's
// width split an input's samples over several batches.
func TestBatchedSensBreakMatchesReference(t *testing.T) {
	tr, err := trace.Record(steerProgram())
	if err != nil {
		t.Fatal(err)
	}
	inst := tr.Instances[0]
	for _, samples := range []int{64, 150} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := Config{Samples: samples, PhiMax: 0.01, Seed: seed}
			amp, stats := Analyze(tr, inst, cfg)
			ref, refStats := analyzeReference(tr, inst, cfg)
			if !sameEstimate(amp, ref, stats, refStats) {
				t.Fatalf("samples %d seed %d: batched K %v %+v, scalar K %v %+v",
					samples, seed, amp.K, stats, ref.K, refStats)
			}
		}
	}

	// With seed 3 both early stops fall partway through their input's
	// samples: a stops at its 50th sample and b at its 23rd, while all 64
	// of c's samples run.
	cfg := DefaultConfig()
	cfg.Seed = 3
	amp, stats := Analyze(tr, inst, cfg)
	for oi := range amp.K {
		for ii := 0; ii < 2; ii++ {
			if amp.K[oi][ii] != DiscreteK {
				t.Errorf("K[%d][%d] = %v, want DiscreteK", oi, ii, amp.K[oi][ii])
			}
		}
	}
	if k := amp.K[0][2]; k == 0 || k == DiscreteK {
		t.Errorf("K(c->y) = %v, want a finite estimate", k)
	}
	if k := amp.K[1][2]; !math.IsInf(k, 1) {
		t.Errorf("K(c->z) = %v, want +Inf", k)
	}
	if stats.Runs != 50+23+64 {
		t.Errorf("%d runs, want %d", stats.Runs, 50+23+64)
	}
}
