package sens

import (
	"math"
	"math/rand"

	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// analyzeReference is the scalar estimator: every sample restores its own
// machine from the instance's entry, perturbs it, and runs to the
// section's end alone. Tests hold Analyze to its K and Stats bit for bit.
func analyzeReference(t *trace.Trace, inst *trace.Instance, cfg Config) (*Amplification, Stats) {
	nIn, nOut := len(inst.IO.Inputs), len(inst.IO.Outputs)
	amp := &Amplification{K: make([][]float64, nOut)}
	for oi := range amp.K {
		amp.K[oi] = make([]float64, nIn)
	}
	var stats Stats

	sec := t.Prog.Sections[inst.Sec]
	if sec.Discrete {
		for oi := 0; oi < nOut; oi++ {
			for ii := 0; ii < nIn; ii++ {
				amp.K[oi][ii] = DiscreteK
			}
		}
		return amp, stats
	}
	if cfg.Samples <= 0 || cfg.PhiMax <= 0 {
		return amp, stats
	}

	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, inst)))
	m := inst.Entry.Clone()
	limit := inst.BegDyn + 1 + 16*inst.Len() + 64

	for ii, in := range inst.IO.Inputs {
		if in.Kind != spec.Float || in.Len == 0 {
			// Integer inputs of non-discrete sections (e.g. control
			// parameters) are not perturbed; errors in them are covered by
			// the conservative side-effect handling. An empty buffer has
			// nothing to perturb.
			continue
		}
		for s := 0; s < cfg.Samples; s++ {
			m.RestoreFrom(inst.Entry)
			m.MaxDyn = limit
			phi := perturbReference(rng, m, in, cfg.PhiMax)
			if phi == 0 {
				continue
			}
			if !runToSecEnd(m, inst.Sec) {
				// Perturbation diverged the section so far that it did not
				// complete; treat as worst case for this input.
				for oi := 0; oi < nOut; oi++ {
					amp.K[oi][ii] = DiscreteK
				}
				stats.Runs++
				stats.SimInstrs += m.Dyn - (inst.BegDyn + 1)
				break
			}
			stats.Runs++
			stats.SimInstrs += m.Dyn - (inst.BegDyn + 1)
			for oi, out := range inst.IO.Outputs {
				diff := maxAbsDiffReference(out, inst.Exit, m)
				if k := diff / phi; k > amp.K[oi][ii] {
					amp.K[oi][ii] = k
				}
			}
		}
	}
	return amp, stats
}

// perturbReference adds random perturbations up to phiMax to one,
// several, or all elements of the buffer and returns the maximum absolute
// perturbation applied (the |φ| denominator of Eq. 1).
func perturbReference(rng *rand.Rand, m *vm.Machine, b spec.Buffer, phiMax float64) float64 {
	var idxs []int
	switch rng.Intn(3) {
	case 0: // single element
		idxs = []int{rng.Intn(b.Len)}
	case 1: // several elements
		n := 1 + rng.Intn(b.Len)
		idxs = rng.Perm(b.Len)[:n]
	default: // all elements
		idxs = make([]int, b.Len)
		for i := range idxs {
			idxs[i] = i
		}
	}
	maxPhi := 0.0
	for _, i := range idxs {
		delta := (rng.Float64()*2 - 1) * phiMax
		if delta == 0 {
			continue
		}
		addr := b.Addr + i
		v := math.Float64frombits(m.Mem[addr])
		m.Mem[addr] = math.Float64bits(v + delta)
		if a := math.Abs(delta); a > maxPhi {
			maxPhi = a
		}
	}
	return maxPhi
}

func maxAbsDiffReference(b spec.Buffer, clean, dirty *vm.Machine) float64 {
	max := 0.0
	for i := 0; i < b.Len; i++ {
		cv := math.Float64frombits(clean.Mem[b.Addr+i])
		dv := math.Float64frombits(dirty.Mem[b.Addr+i])
		d := math.Abs(cv - dv)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > max {
			max = d
		}
	}
	return max
}
