// Tests of the public API surface: everything a downstream user touches
// must be reachable through the root package alone.
package fastflip_test

import (
	"math"
	"path/filepath"
	"testing"

	"fastflip"
)

// publicProgram builds a one-section program using only root-package
// identifiers.
func publicProgram(t *testing.T) *fastflip.Program {
	t.Helper()
	mod := fastflip.NewModule()

	main := fastflip.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Call("halve")
	main.SecEnd(0)
	main.RoiEnd()
	main.Halt()
	mod.MustAdd(main.MustBuild())

	halve := fastflip.NewFunc("halve")
	halve.Li(1, 0)
	halve.Fld(0, 1, 0)
	halve.Fli(1, 0.5)
	halve.Fmul(0, 0, 1)
	halve.Li(1, 0)
	halve.Fst(0, 1, 1)
	halve.Ret()
	mod.MustAdd(halve.MustBuild())

	linked, err := mod.Link("main")
	if err != nil {
		t.Fatal(err)
	}
	in := fastflip.Buffer{Name: "in", Addr: 0, Len: 1, Kind: fastflip.Float}
	out := fastflip.Buffer{Name: "out", Addr: 1, Len: 1, Kind: fastflip.Float}
	return &fastflip.Program{
		Name:     "halver",
		Linked:   linked,
		MemWords: 4,
		Init:     func(m *fastflip.Machine) { m.Mem[0] = math.Float64bits(5.0) },
		Sections: []fastflip.Section{
			{ID: 0, Name: "halve", Instances: []fastflip.InstanceIO{
				{Inputs: []fastflip.Buffer{in}, Outputs: []fastflip.Buffer{out},
					Live: []fastflip.Buffer{in, out}},
			}},
		},
		FinalOutputs: []fastflip.Buffer{out},
	}
}

func TestPublicAPIPipeline(t *testing.T) {
	p := publicProgram(t)

	tr, err := fastflip.RecordTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(tr.Final.Mem[1]); got != 2.5 {
		t.Fatalf("out = %v, want 2.5", got)
	}

	cfg := fastflip.DefaultConfig()
	cfg.Targets = []float64{0.9}
	a := fastflip.NewAnalyzer(cfg)
	r, err := a.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	a.RunBaseline(r)
	evals, err := a.Evaluate(r, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].FF == nil {
		t.Fatalf("evals = %+v", evals)
	}

	// Store round trip through the public API.
	path := filepath.Join(t.TempDir(), "s.ffs")
	if err := a.Store.Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := fastflip.LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	a2 := &fastflip.Analyzer{Cfg: cfg, Store: st}
	r2, err := a2.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.ReusedInstances != 1 {
		t.Errorf("reuse through public store API: %d", r2.ReusedInstances)
	}
}

func TestPublicBenchmarks(t *testing.T) {
	names := fastflip.Benchmarks()
	if len(names) != 5 {
		t.Fatalf("benchmarks = %v", names)
	}
	for _, v := range []fastflip.Variant{fastflip.None, fastflip.Small, fastflip.Large} {
		p, err := fastflip.BuildBenchmark("bscholes", v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fastflip.RecordTrace(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fastflip.BuildBenchmark("nope", fastflip.None); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaign")
	}
	opts := fastflip.DefaultEvalOptions()
	opts.Benchmarks = []string{"bscholes"}
	suite, err := fastflip.RunEvaluation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Table1() == "" || suite.Table2() == "" || suite.Table3() == "" {
		t.Error("empty tables")
	}
}
