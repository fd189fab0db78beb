package knap

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fastflip/internal/qcheck"
)

// refSolver is the full-width 0-1 DP that New replaced: every row covers
// every cost from 0 to the total, and every item, zero-value ones included,
// has a take row. It is the oracle for the prefix-bounded DP.
type refSolver struct {
	items []Item
	best  []float64
	take  [][]uint64
}

func newRef(items []Item) *refSolver {
	items = append([]Item(nil), items...)
	sort.SliceStable(items, func(a, b int) bool { return lessID(items[a].ID, items[b].ID) })
	total := 0
	for _, it := range items {
		total += it.Cost
	}
	s := &refSolver{items: items, best: make([]float64, total+1), take: make([][]uint64, len(items))}
	for i, it := range items {
		row := make([]uint64, (total+64)/64)
		s.take[i] = row
		if it.Value == 0 {
			continue
		}
		for c := total; c >= it.Cost; c-- {
			if v := s.best[c-it.Cost] + it.Value; v > s.best[c] {
				s.best[c] = v
				row[c/64] |= 1 << (c % 64)
			}
		}
	}
	return s
}

func (s *refSolver) reconstruct(cost int) *Selection {
	var chosen []Item
	c := cost
	for i := len(s.items) - 1; i >= 0; i-- {
		if s.take[i][c/64]&(1<<(c%64)) != 0 {
			chosen = append(chosen, s.items[i])
			c -= s.items[i].Cost
		}
	}
	return selectionOf(chosen)
}

// edgyItems draws an item set rich in the cases the prefix bound must get
// right: zero-cost and zero-value items, exact value ties, repeated costs
// and, sometimes, values far below the running sum.
func edgyItems(r *rand.Rand) []Item {
	n := r.Intn(40)
	costs := []int{0, 1, 2, 3, 7, 64, 65}
	values := []float64{0, 0.125, 0.25, 1e-18, 1.0 / 3}
	items := make([]Item, n)
	for i := range items {
		it := Item{ID: id(i), Cost: r.Intn(30), Value: r.Float64()}
		if r.Intn(3) == 0 {
			it.Cost = costs[r.Intn(len(costs))]
		}
		if r.Intn(3) == 0 {
			it.Value = values[r.Intn(len(values))]
		}
		if i > 0 && r.Intn(6) == 0 {
			it.Value = items[r.Intn(i)].Value
		}
		items[i] = it
	}
	r.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items
}

// firstDiff returns the first index where a and b differ bit-wise, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPrefixDPMatchesReference: the prefix-bounded DP leaves best[]
// bit-identical to the full-width DP and reconstructs the same selection
// from every cost, and MinCostFor agrees at every attainable value.
func TestPrefixDPMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		items := edgyItems(rand.New(rand.NewSource(seed)))
		got, want := New(items), newRef(items)
		if c := firstDiff(got.Best(), want.best); c >= 0 {
			t.Logf("seed %d: best[] differs first at cost %d of %d", seed, c, len(want.best)-1)
			return false
		}
		if math.Float64bits(got.MaxValue()) != math.Float64bits(want.best[len(want.best)-1]) {
			t.Logf("seed %d: MaxValue %v, reference %v", seed, got.MaxValue(), want.best[len(want.best)-1])
			return false
		}
		for c := 0; c <= got.TotalCost(); c++ {
			if g, w := got.Reconstruct(c), want.reconstruct(c); !sameSelection(g, w) {
				t.Logf("seed %d cost %d: selected %+v, reference %+v", seed, c, g, w)
				return false
			}
			target := want.best[c]
			g, err := got.MinCostFor(target)
			if err != nil {
				t.Logf("seed %d cost %d: %v", seed, c, err)
				return false
			}
			wc := sort.Search(len(want.best), func(k int) bool { return want.best[k] >= target-valueSlack })
			if w := want.reconstruct(wc); !sameSelection(g, w) {
				t.Logf("seed %d target %v: MinCostFor %+v, reference %+v", seed, target, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcheck.Config(t, 300)); err != nil {
		t.Error(err)
	}
}

func sameSelection(a, b *Selection) bool {
	return reflect.DeepEqual(a.IDs, b.IDs) && math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Cost == b.Cost
}

// TestPrefixDPAllZeroValue: with no positive-value item there are no rows,
// every cell is zero and the only selection is empty.
func TestPrefixDPAllZeroValue(t *testing.T) {
	s := New([]Item{{ID: id(0), Cost: 4}, {ID: id(1), Cost: 0}})
	if firstDiff(s.Best(), make([]float64, 5)) >= 0 || s.MaxValue() != 0 {
		t.Fatalf("best = %v, want all zero", s.Best())
	}
	sel, err := s.MinCostFor(0)
	if err != nil || len(sel.IDs) != 0 || sel.Cost != 0 {
		t.Fatalf("MinCostFor(0) = %+v, %v; want the empty selection", sel, err)
	}
}
