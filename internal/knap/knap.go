// Package knap solves the instruction-selection problem of §4.6: choose a
// set of static instructions that meets a target total protection value
// while minimizing total protection cost. This is a 0-1 knapsack problem
// solved with the standard dynamic program over cost, which also yields the
// whole value/cost Pareto frontier in one pass (the ε-constraint sweep the
// paper uses for Figure 1). Each row of the DP covers only the costs its
// prefix of items can reach, so the work is Σ_i (S_i − w_i) cell updates
// (S_i the summed cost of the positive-value items up to item i, w_i its
// cost), not len(items) × total cost.
package knap

import (
	"fmt"
	"math"
	"sort"

	"fastflip/internal/prog"
)

// Item is one static instruction with its protection value and cost.
type Item struct {
	ID    prog.StaticID
	Value float64 // fraction of SDC-Bad errors detected by protecting it
	Cost  int     // dynamic instances of the instruction (runtime overhead)
}

// valueSlack absorbs float accumulation error when comparing sums of
// per-item values against a target. Item values are normalized fractions
// that sum to 1, so 1e-6 is far below any meaningful value difference.
const valueSlack = 1e-6

// Solver holds the DP table for one item set.
type Solver struct {
	items     []Item
	totalCost int
	best      []float64 // best[c] = max value achievable with cost ≤ c
	rows      []row     // one per positive-value item, in canonical order
}

// row is the take table of one DP row. reach is S_i, the summed cost of
// the positive-value items up to and including this one: every cell above
// reach holds the row's full-fit value and takes the same decision as cell
// reach, so take only stores bits for cells 0..reach.
type row struct {
	item  int // index into Solver.items
	reach int
	take  []uint64
}

// lessID orders static IDs canonically (function name, then local index).
func lessID(a, b prog.StaticID) bool {
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	return a.Local < b.Local
}

// New builds the DP table. Row i is computed only over the cells
// [w_i, S_i], where w_i is the item's cost and S_i the summed cost of the
// positive-value items up to it, so the work is Σ_i (S_i − w_i) cell
// updates rather than len(items) × total cost. Zero-value items get no
// row: they are never worth protecting, and skipping them keeps cost
// minimal.
//
// Items are canonicalized by static ID first (the caller's slice is left
// untouched): the DP breaks value ties by item order, so without a fixed
// order two runs fed the same items from differently-ordered maps would
// emit different — equally optimal — protection sets, and resumed runs
// could not be compared byte-for-byte against fresh ones.
func New(items []Item) *Solver {
	items = append([]Item(nil), items...)
	sort.SliceStable(items, func(a, b int) bool { return lessID(items[a].ID, items[b].ID) })
	s := &Solver{items: items}
	for _, it := range items {
		if it.Cost < 0 || it.Value < 0 {
			panic(fmt.Sprintf("knap: negative cost or value for %v", it.ID))
		}
		s.totalCost += it.Cost
	}
	best := make([]float64, s.totalCost+1)
	reach := 0
	for i, it := range items {
		if it.Value == 0 {
			continue
		}
		w := it.Cost
		// Cells (S_{i-1}, S_i] enter the prefix holding the previous
		// row's full-fit value, as the full-width DP would have left them.
		for c := reach + 1; c <= reach+w; c++ {
			best[c] = best[reach]
		}
		reach += w
		take := make([]uint64, reach/64+1)
		// Cells c = reach down to w, one take word at a time: walking
		// downward, each read of best[c-w] (lo) still sees the previous
		// row, and the word's take bits collect in a register instead of
		// a read-modify-write of take per cell.
		for k := reach / 64; k >= w/64; k-- {
			cLo, cHi := max(w, 64*k), min(reach, 64*k+63)
			lo, hi := best[cLo-w:cHi-w+1], best[cLo:cHi+1]
			hi = hi[:len(lo)]
			base := uint(cLo % 64)
			var bits uint64
			for j := len(lo) - 1; j >= 0; j-- {
				if v := lo[j] + it.Value; v > hi[j] {
					hi[j] = v
					bits |= 1 << ((base + uint(j)) & 63)
				}
			}
			take[k] = bits
		}
		s.rows = append(s.rows, row{item: i, reach: reach, take: take})
	}
	for c := reach + 1; c <= s.totalCost; c++ {
		best[c] = best[reach]
	}
	s.best = best
	return s
}

// TotalCost returns the cost of protecting every item.
func (s *Solver) TotalCost() int { return s.totalCost }

// MaxValue returns the total value of protecting every item.
func (s *Solver) MaxValue() float64 { return s.best[s.totalCost] }

// Selection is a chosen set of instructions.
type Selection struct {
	IDs   []prog.StaticID
	Value float64
	Cost  int
}

// Has reports whether the selection contains id.
func (sel *Selection) Has(id prog.StaticID) bool {
	for _, x := range sel.IDs {
		if x == id {
			return true
		}
	}
	return false
}

// Set returns the selection as a lookup map.
func (sel *Selection) Set() map[prog.StaticID]bool {
	m := make(map[prog.StaticID]bool, len(sel.IDs))
	for _, id := range sel.IDs {
		m[id] = true
	}
	return m
}

// MinCostFor returns the minimum-cost selection whose value is at least
// target. It returns an error if the target exceeds the achievable value.
func (s *Solver) MinCostFor(target float64) (*Selection, error) {
	if target > s.MaxValue()+valueSlack {
		return nil, fmt.Errorf("knap: target value %.4f exceeds achievable %.4f", target, s.MaxValue())
	}
	cost := sort.Search(s.totalCost+1, func(c int) bool {
		return s.best[c] >= target-valueSlack
	})
	return s.reconstruct(cost), nil
}

// reconstruct walks the take bits backward from cost, reading a row above
// its reach at the reach.
func (s *Solver) reconstruct(cost int) *Selection {
	var chosen []Item
	c := cost
	for i := len(s.rows) - 1; i >= 0; i-- {
		r := &s.rows[i]
		b := min(c, r.reach)
		if r.take[b/64]&(1<<(b%64)) != 0 {
			it := s.items[r.item]
			chosen = append(chosen, it)
			c -= it.Cost
		}
	}
	return selectionOf(chosen)
}

// selectionOf renders chosen items in canonical ID order, with value and
// cost accumulated in that same order so the recorded sums are
// bit-reproducible from the IDs.
func selectionOf(chosen []Item) *Selection {
	sort.Slice(chosen, func(a, b int) bool { return lessID(chosen[a].ID, chosen[b].ID) })
	sel := &Selection{}
	for _, it := range chosen {
		sel.IDs = append(sel.IDs, it.ID)
		sel.Value += it.Value
		sel.Cost += it.Cost
	}
	return sel
}

// Greedy returns the selection produced by the value-density heuristic
// (take items by descending value/cost until the target is met). It exists
// as an ablation baseline for the DP solver.
func Greedy(items []Item, target float64) *Selection {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		da := density(ia)
		db := density(ib)
		if da != db {
			return da > db
		}
		if ia.Cost != ib.Cost {
			return ia.Cost < ib.Cost
		}
		// Full tie: order by static ID so the heuristic, like the DP, is
		// independent of the caller's item ordering.
		return lessID(ia.ID, ib.ID)
	})
	sel := &Selection{}
	for _, i := range order {
		if sel.Value >= target-valueSlack {
			break
		}
		it := items[i]
		if it.Value == 0 {
			continue
		}
		sel.IDs = append(sel.IDs, it.ID)
		sel.Value += it.Value
		sel.Cost += it.Cost
	}
	sort.Slice(sel.IDs, func(a, b int) bool { return lessID(sel.IDs[a], sel.IDs[b]) })
	return sel
}

func density(it Item) float64 {
	if it.Cost == 0 {
		return math.Inf(1)
	}
	return it.Value / float64(it.Cost)
}
