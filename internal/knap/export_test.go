package knap

// Best exposes the DP's best-value table to tests.
func (s *Solver) Best() []float64 { return s.best }

// Reconstruct exposes the take-bit walk from an arbitrary cost to tests.
func (s *Solver) Reconstruct(cost int) *Selection { return s.reconstruct(cost) }
