// Package sens implements the local sensitivity analysis (§2.2, Eq. 1): it
// estimates, for each section instance, how much the section amplifies an
// SDC already present in each of its inputs.
//
// For input buffer i and output buffer o of a section s at concrete input
// x₀, the amplification factor is the empirical Lipschitz estimate
//
//	K[o][i] = max over perturbations φ of |s(x₀+φ)(o) - s(x₀)(o)| / |φ|
//
// computed by re-running the section from its entry checkpoint with random
// perturbations of single, several, or all elements of the input buffer
// (§5.6 "Sensitivity analysis parameters"). Sections marked Discrete
// (integer/bitwise kernels such as a hash round) get the worst-case factor
// instead: any input corruption may scramble the output arbitrarily.
package sens

import (
	"math"
	"math/rand"

	"fastflip/internal/mix"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// DiscreteK is the amplification factor assigned to Discrete sections.
// It is large enough that any propagated SDC exceeds every practical ε.
const DiscreteK = 1e100

// Config controls the sensitivity estimation.
type Config struct {
	// Samples is the number of perturbation runs per input buffer.
	// The paper uses 1e6; our defaults are smaller because the estimates
	// converge quickly at our input sizes (see DESIGN.md).
	Samples int
	// PhiMax is the maximum perturbation magnitude, matching the SDC-Good
	// threshold ε of §5.6.
	PhiMax float64
	// Seed makes the random perturbations reproducible.
	Seed int64
}

// DefaultConfig matches the evaluation setup: perturbations up to 0.01.
func DefaultConfig() Config {
	return Config{Samples: 64, PhiMax: 0.01, Seed: 1}
}

// Amplification holds the per-instance result: K[o][i] is the estimated
// amplification from input buffer i to output buffer o.
type Amplification struct {
	K [][]float64
}

// Stats counts the simulated instructions spent estimating sensitivities.
type Stats struct {
	Runs      int
	SimInstrs uint64
}

// streamSeed derives the perturbation RNG seed of one section instance.
// The instance's full identity — section ID, occurrence index, and dynamic
// position — is avalanche-mixed with the configured seed, so two instances
// never share a perturbation stream even when an edit leaves them at equal
// BegDyn (a plain XOR of cfg.Seed and BegDyn collided exactly there).
// Everything mixed in comes from the trace, so a resumed analysis draws
// the same streams as an uninterrupted one.
func streamSeed(seed int64, inst *trace.Instance) int64 {
	acc := mix.Fold(uint64(seed), uint64(inst.Sec))
	acc = mix.Fold(acc, uint64(inst.Occur))
	acc = mix.Fold(acc, inst.BegDyn)
	return int64(acc)
}

// Analyze estimates the amplification matrix of one section instance.
func Analyze(t *trace.Trace, inst *trace.Instance, cfg Config) (*Amplification, Stats) {
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
		if in.Kind != spec.Float {
			// Integer inputs of non-discrete sections (e.g. control
			// parameters) are not perturbed; errors in them are covered by
			// the conservative side-effect handling.
			continue
		}
		for s := 0; s < cfg.Samples; s++ {
			m.RestoreFrom(inst.Entry)
			m.MaxDyn = limit
			phi := perturb(rng, m, in, cfg.PhiMax)
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
				diff := maxAbsDiff(out, inst.Exit, m)
				if k := diff / phi; k > amp.K[oi][ii] {
					amp.K[oi][ii] = k
				}
			}
		}
	}
	return amp, stats
}

// perturb adds random perturbations up to phiMax to one, several, or all
// elements of the buffer and returns the maximum absolute perturbation
// applied (the |φ| denominator of Eq. 1).
func perturb(rng *rand.Rand, m *vm.Machine, b spec.Buffer, phiMax float64) float64 {
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

// runToSecEnd resumes the machine until the SECEND of section sec executes.
// It reports false if execution terminates first.
func runToSecEnd(m *vm.Machine, sec int) bool {
	for {
		ev := m.RunToEvent(vm.NoStop)
		switch ev.Kind {
		case vm.EvSecEnd:
			if ev.Sec == sec {
				return true
			}
		case vm.EvHalt, vm.EvCrash, vm.EvTimeout:
			return false
		}
	}
}

func maxAbsDiff(b spec.Buffer, clean, dirty *vm.Machine) float64 {
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
