package inject_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/diffcheck"
	"fastflip/internal/inject"
	"fastflip/internal/maskelide"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// holdToReference makes every section verdict reached while t runs face
// the whole-buffer reference classifier: a difference in kind, reason or
// the bits of any magnitude fails t. It returns the number of verdicts
// checked so far.
func holdToReference(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	restore := inject.SetVerdictCheck(func(inst *trace.Instance, m *vm.Machine, got metrics.Outcome) {
		n.Add(1)
		if want := inject.ReferenceVerdict(inst, m); !inject.SameOutcome(got, want) {
			t.Errorf("section %d occurrence %d, machine at dyn %d: verdict %+v, reference %+v",
				inst.Sec, inst.Occur, m.Dyn, got, want)
		}
	})
	t.Cleanup(restore)
	return &n
}

// campaignRun is one section campaign's per-class results.
type campaignRun struct {
	secs, fins []metrics.Outcome
	costs      []inject.Stats
	stats      inject.Stats
}

// runCampaign runs inst's section campaign, or its co-run campaign, and
// records each class's cost share.
func runCampaign(tr *trace.Trace, inst *trace.Instance, classes []*sites.Class, workers int, noBatch, coRun bool) campaignRun {
	inj := &inject.Injector{T: tr, Workers: workers, NoBatch: noBatch}
	r := campaignRun{costs: make([]inject.Stats, len(classes))}
	hooks := inject.CampaignHooks{Record: func(i int, _ metrics.Outcome, _ *metrics.Outcome, cost inject.Stats) {
		r.costs[i] = cost
	}}
	r.secs, r.fins, r.stats = inj.RunSectionResume(context.Background(), inst, classes, coRun, hooks)
	return r
}

// checkCampaigns runs every instance's campaign batched on two workers
// and scalar on one, with every verdict held to the reference, and
// requires the two to agree class by class: outcomes to the magnitude
// bit, and the split-independent costs (accounted and faulty
// instructions). It returns the number of experiments that ran batched.
func checkCampaigns(t *testing.T, tr *trace.Trace, coRun bool) int {
	t.Helper()
	checked := holdToReference(t)
	batched := 0
	for _, inst := range tr.Instances {
		classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
		got := runCampaign(tr, inst, classes, 2, false, coRun)
		want := runCampaign(tr, inst, classes, 1, true, coRun)
		batched += got.stats.BatchExperiments
		for i := range classes {
			where := fmt.Sprintf("section %d occurrence %d class %d", inst.Sec, inst.Occur, i)
			if !inject.SameOutcome(got.secs[i], want.secs[i]) {
				t.Errorf("%s: batched %+v, scalar %+v", where, got.secs[i], want.secs[i])
			}
			if coRun && !inject.SameOutcome(got.fins[i], want.fins[i]) {
				t.Errorf("%s: batched final %+v, scalar final %+v", where, got.fins[i], want.fins[i])
			}
			g, w := got.costs[i], want.costs[i]
			if g.SimInstrs != w.SimInstrs || g.FaultyInstrs != w.FaultyInstrs {
				t.Errorf("%s: batched cost sim %d faulty %d, scalar sim %d faulty %d",
					where, g.SimInstrs, g.FaultyInstrs, w.SimInstrs, w.FaultyInstrs)
			}
		}
		if got.stats.SimInstrs != want.stats.SimInstrs || got.stats.FaultyInstrs != want.stats.FaultyInstrs {
			t.Errorf("section %d occurrence %d: batched stats %+v, scalar %+v", inst.Sec, inst.Occur, got.stats, want.stats)
		}
	}
	if checked.Load() == 0 {
		t.Fatal("no verdict reached the reference check")
	}
	return batched
}

func record(t *testing.T, p *spec.Program) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestVerdictMatchesReference holds every section verdict of whole
// benchmark campaigns (lockstep survivors, scalar finishers, co-run
// section halves) to the whole-buffer reference classifier.
func TestVerdictMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		variant bench.Variant
		coRun   bool
	}{
		{"fft", bench.Small, false},
		{"lud", bench.Small, false},
		{"bscholes", bench.Small, true},
	} {
		name := fmt.Sprintf("%s-%s", tc.bench, tc.variant)
		if tc.coRun {
			name += "-corun"
		}
		t.Run(name, func(t *testing.T) {
			tr := record(t, bench.MustBuild(tc.bench, tc.variant))
			if checkCampaigns(t, tr, tc.coRun) == 0 {
				t.Error("no experiment ran batched")
			}
		})
	}
}

// TestVerdictMatchesReferenceFuzz does the same over programs from the
// differential fuzzer's generator, with section and co-run campaigns, and
// also checks the per-site Section path (which scans every compared word)
// against the campaign.
func TestVerdictMatchesReferenceFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, fam := range []diffcheck.Family{diffcheck.FamilySound, diffcheck.FamilyMixed} {
			t.Run(fmt.Sprintf("%s-%d", fam, seed), func(t *testing.T) {
				p, err := diffcheck.Generate(seed, fam).Program()
				if err != nil {
					t.Fatal(err)
				}
				tr := record(t, p)
				checkCampaigns(t, tr, false)
				checkCampaigns(t, tr, true)

				holdToReference(t)
				inj := &inject.Injector{T: tr}
				m := tr.Start.Clone()
				for _, inst := range tr.Instances {
					classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
					outs, _ := inj.RunSection(context.Background(), inst, classes)
					for i := 0; i < len(classes); i += 7 {
						if got, _, _ := inj.Section(m, inst, classes[i].PilotSite(), false); !inject.SameOutcome(got, outs[i]) {
							t.Errorf("section %d class %d: per-site %+v, campaign %+v", inst.Sec, i, got, outs[i])
						}
					}
				}
			})
		}
	}
}

// TestCoRunSectionsMatchPlain is the gate on the co-run shape: a co-run
// experiment is the section experiment followed by the monolithic finish,
// so over the five originals and generated programs, with one or two
// workers and batching on or off, every class's section outcome of a
// co-run campaign equals the plain campaign's in kind, reason and the bits
// of every magnitude. Elision is on, so the masked path is covered too.
// Under the race detector each instance runs only a window of its dyn
// order (coRunWindow), in which whole same-dyn groups still batch.
func TestCoRunSectionsMatchPlain(t *testing.T) {
	progs := map[string]*spec.Program{}
	for _, name := range bench.Names() {
		progs[name] = bench.MustBuild(name, bench.None)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, fam := range []diffcheck.Family{diffcheck.FamilySound, diffcheck.FamilyMixed} {
			p, err := diffcheck.Generate(seed, fam).Program()
			if err != nil {
				t.Fatal(err)
			}
			progs[fmt.Sprintf("%s-%d", fam, seed)] = p
		}
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			tr := record(t, p)
			opts := sites.Options{Prune: true, Masks: maskelide.Analyze(tr.Prog.Linked)}
			compared, batched := 0, 0
			for _, inst := range tr.Instances {
				classes := sites.ForInstance(tr, inst, opts)
				run := func(workers int, noBatch, coRun bool) ([]metrics.Outcome, []metrics.Outcome, inject.Stats) {
					inj := &inject.Injector{T: tr, Workers: workers, NoBatch: noBatch}
					hooks := inject.CampaignHooks{Range: &inject.ShardRange{Lo: 0, Hi: coRunWindow}}
					return inj.RunSectionResume(context.Background(), inst, classes, coRun, hooks)
				}
				plain, _, _ := run(1, true, false)
				for _, cfg := range []struct {
					workers int
					noBatch bool
				}{{1, false}, {1, true}, {2, false}, {2, true}} {
					secs, fins, stats := run(cfg.workers, cfg.noBatch, true)
					if len(fins) != len(classes) {
						t.Fatalf("co-run returned %d end-to-end outcomes for %d classes", len(fins), len(classes))
					}
					for i := range classes {
						if !inject.SameOutcome(secs[i], plain[i]) {
							t.Errorf("section %d occurrence %d class %d, workers %d noBatch %v: co-run %+v, plain %+v",
								inst.Sec, inst.Occur, i, cfg.workers, cfg.noBatch, secs[i], plain[i])
						}
					}
					compared += stats.Experiments
					batched += stats.BatchExperiments
				}
			}
			if compared == 0 || batched == 0 {
				t.Fatalf("%d co-run experiments compared, %d batched; the gate is vacuous", compared, batched)
			}
		})
	}
}
