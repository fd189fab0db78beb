package inject

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/metrics"
	"fastflip/internal/sites"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// TestSharedPoolMatchesPrivate runs the section campaigns of two programs
// with different memory sizes all at once on one two-slot pool, cut into
// three chunks each, and requires every campaign's outcomes and Stats to
// equal those of the same campaign on a private pool. Slot engines are
// re-seeded across instances and programs along the way.
func TestSharedPoolMatchesPrivate(t *testing.T) {
	type campaign struct {
		tr      *trace.Trace
		inst    *trace.Instance
		classes []*sites.Class
	}
	var campaigns []campaign
	for _, p := range []struct {
		name string
		tr   func() (*trace.Trace, error)
	}{
		{"lud", func() (*trace.Trace, error) { return trace.Record(bench.MustBuild("lud", bench.None)) }},
		{"pipeline", func() (*trace.Trace, error) { return trace.Record(testprog.Pipeline()) }},
	} {
		tr, err := p.tr()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, inst := range tr.Instances {
			campaigns = append(campaigns, campaign{tr, inst, sites.ForInstance(tr, inst, sites.Options{Prune: true})})
		}
	}

	pool := NewPool(2)
	got := make([][]metrics.Outcome, len(campaigns))
	gotStats := make([]Stats, len(campaigns))
	var wg sync.WaitGroup
	for i, c := range campaigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotStats[i] = (&Injector{T: c.tr, Workers: 3, Pool: pool}).RunSection(context.Background(), c.inst, c.classes)
		}()
	}
	wg.Wait()

	for i, c := range campaigns {
		want, wantStats := (&Injector{T: c.tr, Workers: 3}).RunSection(context.Background(), c.inst, c.classes)
		if gotStats[i] != wantStats {
			t.Errorf("campaign %d: shared-pool stats %+v, private %+v", i, gotStats[i], wantStats)
		}
		for j := range want {
			if !sameOutcomeBits(got[i][j], want[j]) {
				t.Fatalf("campaign %d class %d: shared-pool outcome %+v, private %+v", i, j, got[i][j], want[j])
			}
		}
	}
}

// sameOutcomeBits compares outcomes with magnitudes as bits.
func sameOutcomeBits(a, b metrics.Outcome) bool {
	if a.Kind != b.Kind || a.Reason != b.Reason || len(a.Magnitudes) != len(b.Magnitudes) {
		return false
	}
	for i := range a.Magnitudes {
		if math.Float64bits(a.Magnitudes[i]) != math.Float64bits(b.Magnitudes[i]) {
			return false
		}
	}
	return true
}

// TestPoolServesEarliestSectionFirst: with the only slot busy, queued
// chunks run lowest rank (earliest section) first, and chunks of equal
// rank in the order they were submitted.
func TestPoolServesEarliestSectionFirst(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(name string) func(*engine) {
		return func(*engine) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	queued := func(n int) {
		for {
			p.mu.Lock()
			q := len(p.queue)
			p.mu.Unlock()
			if q == n {
				return
			}
		}
	}

	var wg sync.WaitGroup
	submit := func(rank uint64, tasks ...func(*engine)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run(rank, tasks)
		}()
	}
	submit(0, func(*engine) { close(started); <-release })
	<-started
	submit(5, record("b0"), record("b1"))
	queued(2)
	submit(5, record("c0"))
	queued(3)
	submit(1, record("a0"))
	queued(4)
	close(release)
	wg.Wait()
	if want := []string{"a0", "b0", "b1", "c0"}; !reflect.DeepEqual(order, want) {
		t.Errorf("served %v, want %v", order, want)
	}
}

// TestPoolReservationHoldsLaterSections: while an earlier section holds a
// reservation, a later section's chunk waits on an idle slot; it starts
// once the earlier section submits its chunks, which run first.
func TestPoolReservationHoldsLaterSections(t *testing.T) {
	p := NewPool(1)
	early, late := &trace.Instance{BegDyn: 10}, &trace.Instance{BegDyn: 20}
	var mu sync.Mutex
	var order []string
	record := func(name string) func(*engine) {
		return func(*engine) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	p.Reserve(early)
	p.Reserve(late)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.run(sectionRank(late), []func(*engine){record("late")})
	}()
	for {
		p.mu.Lock()
		q, idle := len(p.queue), len(p.idle)
		p.mu.Unlock()
		if q == 1 {
			if idle != 1 {
				t.Fatal("the later section's chunk took the slot while the earlier one held a reservation")
			}
			break
		}
	}
	p.run(sectionRank(early), []func(*engine){record("early")})
	<-done
	if want := []string{"early", "late"}; !reflect.DeepEqual(order, want) {
		t.Errorf("served %v, want %v", order, want)
	}

	// Release without submitting frees the later sections too.
	order = nil
	p.Reserve(early)
	p.Reserve(late)
	go p.Release(early)
	p.run(sectionRank(late), []func(*engine){record("late")})
	if want := []string{"late"}; !reflect.DeepEqual(order, want) {
		t.Errorf("served %v, want %v", order, want)
	}
}
