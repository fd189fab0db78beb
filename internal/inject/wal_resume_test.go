package inject

import (
	"context"
	"reflect"
	"testing"

	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/store"
)

// TestResumeMidSectionCampaign kills a per-section campaign at a
// deterministic experiment count (the WAL record hook cancels the context
// after K appends, with a single worker), reopens the segment, and resumes
// with the recovered records marked as skipped. The merged outcomes and
// accounted cost must be identical to an uninterrupted campaign, and the
// resumed run must execute exactly the remainder.
func TestResumeMidSectionCampaign(t *testing.T) {
	tr, inj := recorded(t)
	inst := tr.Instances[0]
	classes := sites.ForInstance(tr, inst, sites.Options{Prune: true, Width: 1})
	if len(classes) < 4 {
		t.Fatalf("fixture too small: %d classes", len(classes))
	}
	key, err := store.KeyFor(tr, inst)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Reference: uninterrupted campaign.
	wantOut, wantStats := inj.RunSection(context.Background(), inst, classes)

	// Phase 1: run with a WAL, cancel after K logged experiments.
	const fp = 99
	w, _, err := OpenSectionWAL(dir, key, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	kill := len(classes) / 2
	ctx, cancel := context.WithCancel(context.Background())
	logged := 0
	_, _, stats1 := inj.RunSectionResume(ctx, inst, classes, false, CampaignHooks{
		Record: func(i int, out metrics.Outcome, fin *metrics.Outcome, cost Stats) {
			if err := w.Append(WALRecord{Key: classes[i].Key, Out: out, Fin: fin, Cost: cost}); err != nil {
				t.Errorf("append: %v", err)
			}
			logged++
			if logged == kill {
				cancel()
			}
		},
	})
	cancel()
	w.Close() // no Seal: the "process" died here
	if stats1.Experiments != kill {
		t.Fatalf("interrupted campaign ran %d experiments, want exactly %d (single worker, cancel on K-th append)", stats1.Experiments, kill)
	}

	// Phase 2: recover and run only the remainder.
	w2, rec, err := OpenSectionWAL(dir, key, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(rec.Records) != kill {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), kill)
	}
	if rec.Sealed {
		t.Fatal("unsealed segment reported sealed")
	}
	skip := make([]bool, len(classes))
	var recStats Stats
	outcomes := make([]metrics.Outcome, len(classes))
	for i, c := range classes {
		if r, ok := rec.Records[c.Key]; ok {
			skip[i] = true
			recStats.Add(r.Cost)
			outcomes[i] = r.Out
		}
	}
	resumedOut, _, stats2 := inj.RunSectionResume(context.Background(), inst, classes, false, CampaignHooks{
		Skip: skip,
		Record: func(i int, out metrics.Outcome, fin *metrics.Outcome, cost Stats) {
			if err := w2.Append(WALRecord{Key: classes[i].Key, Out: out, Fin: fin, Cost: cost}); err != nil {
				t.Errorf("append: %v", err)
			}
		},
	})
	if stats2.Experiments != len(classes)-kill {
		t.Fatalf("resumed campaign ran %d experiments, want the remainder %d", stats2.Experiments, len(classes)-kill)
	}
	for i := range classes {
		if !skip[i] {
			outcomes[i] = resumedOut[i]
		}
	}

	// Merged outcomes and accounted cost must match the uninterrupted run.
	if !reflect.DeepEqual(outcomes, wantOut) {
		t.Error("merged outcomes differ from uninterrupted campaign")
	}
	var merged Stats
	merged.Add(recStats)
	merged.Add(stats2)
	if merged.Experiments != wantStats.Experiments || merged.SimInstrs != wantStats.SimInstrs {
		t.Errorf("merged accounted cost {exp %d, sim %d} differs from uninterrupted {exp %d, sim %d}",
			merged.Experiments, merged.SimInstrs, wantStats.Experiments, wantStats.SimInstrs)
	}

	// A third open must now see the complete section.
	w2.Close()
	_, rec3, err := OpenSectionWAL(dir, key, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != len(classes) {
		t.Fatalf("final segment holds %d records, want %d", len(rec3.Records), len(classes))
	}
}

// TestResumeSkipPreservesContiguity checks the scheduling invariant behind
// resume: with an arbitrary skip pattern the filtered experiment list is
// still dyn-sorted per worker, so the clean cursor never has to move
// backwards (a violation panics inside the engine).
func TestResumeSkipPreservesContiguity(t *testing.T) {
	tr, _ := recorded(t)
	inst := tr.Instances[1]
	classes := sites.ForInstance(tr, inst, sites.Options{Prune: true, Width: 1})
	inj := &Injector{T: tr, Workers: 3}
	skip := make([]bool, len(classes))
	for i := range skip {
		skip[i] = i%3 == 0
	}
	full, _ := inj.RunSection(context.Background(), inst, classes)
	part, _, stats := inj.RunSectionResume(context.Background(), inst, classes, false, CampaignHooks{Skip: skip})
	want := 0
	for i := range classes {
		if skip[i] {
			continue
		}
		want++
		if !reflect.DeepEqual(part[i], full[i]) {
			t.Errorf("class %d outcome differs under skip-filtered scheduling", i)
		}
	}
	if stats.Experiments != want {
		t.Errorf("ran %d experiments, want %d", stats.Experiments, want)
	}
}
