package knap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastflip/internal/prog"
	"fastflip/internal/qcheck"
)

func id(i int) prog.StaticID { return prog.StaticID{Func: "f", Local: i} }

func TestMinCostSimple(t *testing.T) {
	items := []Item{
		{ID: id(0), Value: 0.5, Cost: 10},
		{ID: id(1), Value: 0.3, Cost: 2},
		{ID: id(2), Value: 0.2, Cost: 50},
	}
	s := New(items)
	sel, err := s.MinCostFor(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost != 2 || !sel.Has(id(1)) {
		t.Errorf("selection = %+v, want just item 1", sel)
	}
	sel, err = s.MinCostFor(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost != 12 {
		t.Errorf("cost = %d, want 12 (items 0+1)", sel.Cost)
	}
}

func TestMinCostFullAndOverflow(t *testing.T) {
	items := []Item{
		{ID: id(0), Value: 0.6, Cost: 1},
		{ID: id(1), Value: 0.4, Cost: 1},
	}
	s := New(items)
	if s.MaxValue() != 1.0 || s.TotalCost() != 2 {
		t.Fatalf("max value %v, total cost %d", s.MaxValue(), s.TotalCost())
	}
	sel, err := s.MinCostFor(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) != 2 {
		t.Errorf("full target selected %d items", len(sel.IDs))
	}
	if _, err := s.MinCostFor(1.5); err == nil {
		t.Error("unreachable target did not error")
	}
}

func TestZeroValueItemsNeverSelected(t *testing.T) {
	items := []Item{
		{ID: id(0), Value: 0.0, Cost: 0}, // free but worthless
		{ID: id(1), Value: 1.0, Cost: 5},
	}
	sel, err := New(items).MinCostFor(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Has(id(0)) {
		t.Error("selected a zero-value item")
	}
}

func TestZeroCostItems(t *testing.T) {
	items := []Item{
		{ID: id(0), Value: 0.5, Cost: 0},
		{ID: id(1), Value: 0.5, Cost: 7},
	}
	sel, err := New(items).MinCostFor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cost != 0 {
		t.Errorf("cost = %d, want 0 (free item suffices)", sel.Cost)
	}
}

func TestSelectionConsistency(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(7)), 40)
	s := New(items)
	for _, target := range []float64{0.1, 0.5, 0.9, s.MaxValue()} {
		sel, err := s.MinCostFor(target)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute value/cost from IDs: the reconstruction must agree
		// with its own bookkeeping.
		var v float64
		var c int
		for _, selID := range sel.IDs {
			for _, it := range items {
				if it.ID == selID {
					v += it.Value
					c += it.Cost
				}
			}
		}
		if v != sel.Value || c != sel.Cost {
			t.Errorf("target %v: recomputed (%v,%d) != recorded (%v,%d)", target, v, c, sel.Value, sel.Cost)
		}
		if sel.Value < target-valueSlack {
			t.Errorf("target %v: value %v below target", target, sel.Value)
		}
	}
}

// TestSweepMonotone: resolving ascending targets against one DP table
// (the ε-constraint sweep) never lowers the cost.
func TestSweepMonotone(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(3)), 60)
	s := New(items)
	targets := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}
	prev := 0
	for _, target := range targets {
		sel, err := s.MinCostFor(target)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Cost < prev {
			t.Errorf("cost not monotone: %d then %d at %v", prev, sel.Cost, target)
		}
		prev = sel.Cost
	}
}

// TestDPOptimalVsBruteForce checks the DP against exhaustive enumeration
// on small instances.
func TestDPOptimalVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		items := randomItems(r, 10)
		s := New(items)
		target := r.Float64() * s.MaxValue()
		sel, err := s.MinCostFor(target)
		if err != nil {
			t.Fatal(err)
		}
		best := 1 << 30
		for mask := 0; mask < 1<<len(items); mask++ {
			var v float64
			var c int
			for i, it := range items {
				if mask&(1<<i) != 0 {
					v += it.Value
					c += it.Cost
				}
			}
			if v >= target-valueSlack && c < best {
				best = c
			}
		}
		if sel.Cost != best {
			t.Fatalf("trial %d: DP cost %d, brute force %d (target %v)", trial, sel.Cost, best, target)
		}
	}
}

// TestGreedyNeverBeatsDP is the ablation's soundness property: the DP is
// optimal, so greedy can only match or exceed its cost.
func TestGreedyNeverBeatsDP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		items := randomItems(r, 25)
		s := New(items)
		target := 0.2 + 0.7*r.Float64()*s.MaxValue()
		sel, err := s.MinCostFor(target)
		if err != nil {
			return true
		}
		g := Greedy(items, target)
		return g.Cost >= sel.Cost && g.Value >= target-valueSlack
	}
	if err := quick.Check(f, qcheck.Config(t, 40)); err != nil {
		t.Error(err)
	}
}

// TestGreedyMatchesDPOnUniformCosts pins the parity half of the ablation:
// with uniform per-item cost the density order degrades to plain value
// order, which is optimal, so greedy must match the DP's minimum cost
// exactly — not merely bound it — on every random instance.
func TestGreedyMatchesDPOnUniformCosts(t *testing.T) {
	f := func(seed int64, cost uint8) bool {
		c := int(cost%9) + 1
		r := rand.New(rand.NewSource(seed))
		items := randomItems(r, 30)
		for i := range items {
			items[i].Cost = c
		}
		s := New(items)
		target := 0.2 + 0.7*r.Float64()*s.MaxValue()
		sel, err := s.MinCostFor(target)
		if err != nil {
			return true
		}
		g := Greedy(items, target)
		return g.Cost == sel.Cost && g.Value >= target-valueSlack
	}
	if err := quick.Check(f, qcheck.Config(t, 40)); err != nil {
		t.Error(err)
	}
}

func TestNegativeInputsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative cost did not panic")
		}
	}()
	New([]Item{{ID: id(0), Value: 0.1, Cost: -1}})
}

func randomItems(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	total := 0.0
	for i := range items {
		items[i] = Item{ID: id(i), Value: r.Float64(), Cost: r.Intn(20)}
		total += items[i].Value
	}
	for i := range items {
		items[i].Value /= total
	}
	return items
}
