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
	"runtime"
	"slices"

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

// maxReplicas bounds the width of one sampling batch, so the batch's
// per-replica memory columns stay small whatever Samples is.
const maxReplicas = 64

// Analyze estimates the amplification matrix of one section instance.
//
// The samples of one input buffer run as the lockstep replicas of a
// vm.Batch forked at the instance's entry, each seeded with its own
// perturbed words. Replicas still in lockstep at the section's SECEND are
// read inside the batch; any other replica is materialized and finished
// on the scalar engine. The estimate and its Stats are exactly those of
// running every sample on its own scalar machine, in sample order,
// stopping an input at its first sample that does not finish.
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

	s := getSampler()
	defer putSampler(s)
	s.start(inst, streamSeed(cfg.Seed, inst))
	for ii, in := range inst.IO.Inputs {
		if in.Kind != spec.Float || in.Len == 0 {
			// Integer inputs of non-discrete sections (e.g. control
			// parameters) are not perturbed; errors in them are covered by
			// the conservative side-effect handling. An empty buffer has
			// nothing to perturb: it draws nothing, so later inputs keep
			// their RNG streams, and its K column stays 0.
			continue
		}
		for drawn := 0; drawn < cfg.Samples; {
			n := min(cfg.Samples-drawn, maxReplicas)
			s.draw(in, n, cfg.PhiMax)
			drawn += n
			if !s.run(ii, amp, &stats) {
				break
			}
		}
	}
	return amp, stats
}

// sampler is the reusable state of one Analyze call: the batch, its fork
// machine, the RNG, and the drawn samples. Analyze runs on one goroutine
// per section, so idle samplers wait in a shared free list.
type sampler struct {
	inst  *trace.Instance
	seed  int64
	src   countingSource
	rng   *rand.Rand
	perm  []int
	base  vm.Machine // inst.Entry with the sampling timeout; the batch's fork point
	batch vm.Batch

	// The drawn samples with a nonzero perturbation, in sample order:
	// replica k sets words addrs[off[k]:off[k+1]] to vals[off[k]:off[k+1]],
	// perturbs by at most phis[k], and its draws end at the stream's
	// draws[k]-th value.
	addrs, vals []uint64
	off         []int
	phis        []float64
	draws       []int64

	// shared[oi] is output oi's magnitude over the words every replica
	// sees alike; cols lists the output words that are columns.
	shared []float64
	cols   []outWord
	mags   []float64 // the current replica's magnitude per output
}

// outWord is a memory word of output buffer out.
type outWord struct {
	addr uint64
	out  int
}

// samplers holds idle samplers, one per processor at most: a sync.Pool
// would drop them at nearly every collection, and a fresh sampler's
// columns cost up to a megabyte.
var samplers = make(chan *sampler, runtime.GOMAXPROCS(0))

// getSampler returns an idle sampler or a new one.
func getSampler() *sampler {
	select {
	case s := <-samplers:
		return s
	default:
	}
	s := &sampler{src: countingSource{src: rand.NewSource(0)}}
	s.rng = rand.New(&s.src)
	return s
}

// putSampler keeps s for reuse unless enough samplers are idle. It
// drops s's instance, so an idle sampler keeps no trace alive.
func putSampler(s *sampler) {
	s.inst = nil
	select {
	case samplers <- s:
	default:
	}
}

// start points the sampler at inst, with the RNG stream seeded by seed.
func (s *sampler) start(inst *trace.Instance, seed int64) {
	s.inst, s.seed = inst, seed
	s.src.Seed(seed)
	s.base.RestoreFrom(inst.Entry)
	s.base.MaxDyn = inst.BegDyn + 1 + 16*inst.Len() + 64
	nOut := len(inst.IO.Outputs)
	s.shared = slices.Grow(s.shared[:0], nOut)[:nOut]
	s.mags = slices.Grow(s.mags[:0], nOut)[:nOut]
}

// draw draws the next n samples of input buffer b: one, several or all
// of its elements each perturbed by up to phiMax, in the RNG order of one
// scalar sample after another. A sample whose perturbation is zero
// everywhere is drawn but not kept.
func (s *sampler) draw(b spec.Buffer, n int, phiMax float64) {
	rng, entry := s.rng, s.inst.Entry
	s.addrs, s.vals, s.phis, s.draws = s.addrs[:0], s.vals[:0], s.phis[:0], s.draws[:0]
	s.off = append(s.off[:0], 0)
	for ; n > 0; n-- {
		mark := len(s.addrs)
		idxs := s.perm[:0]
		switch rng.Intn(3) {
		case 0: // single element
			idxs = append(idxs, rng.Intn(b.Len))
		case 1: // several elements
			k := 1 + rng.Intn(b.Len)
			idxs = s.permute(b.Len)[:k]
		default: // all elements
			for i := 0; i < b.Len; i++ {
				idxs = append(idxs, i)
			}
		}
		s.perm = idxs
		maxPhi := 0.0
		for _, i := range idxs {
			delta := (rng.Float64()*2 - 1) * phiMax
			if delta == 0 {
				continue
			}
			addr := uint64(b.Addr + i)
			v := math.Float64frombits(entry.Mem[addr])
			s.addrs = append(s.addrs, addr)
			s.vals = append(s.vals, math.Float64bits(v+delta))
			if a := math.Abs(delta); a > maxPhi {
				maxPhi = a
			}
		}
		if maxPhi == 0 {
			s.addrs, s.vals = s.addrs[:mark], s.vals[:mark]
			continue
		}
		s.off = append(s.off, len(s.addrs))
		s.phis = append(s.phis, maxPhi)
		s.draws = append(s.draws, s.src.n)
	}
}

// permute returns rng.Perm(n) in the sampler's buffer: the same draws and
// the same permutation, without allocating.
func (s *sampler) permute(n int) []int {
	p := slices.Grow(s.perm[:0], n)[:n]
	for i := range p {
		j := s.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// run forks the drawn samples as the replicas of one batch, runs them to
// the section's end, and folds each into column ii of K in sample order.
// At the first sample that does not finish it sets the column to
// DiscreteK, rewinds the RNG to just after that sample's draws, and
// reports false: the input's later samples are dropped, and the next
// input draws as if they had never been drawn.
func (s *sampler) run(ii int, amp *Amplification, stats *Stats) bool {
	n := len(s.phis)
	if n == 0 {
		return true
	}
	inst := s.inst
	b := s.batch.Reset(&s.base, n)
	for k := 0; k < n; k++ {
		for w := s.off[k]; w < s.off[k+1]; w++ {
			b.SetWord(k, s.addrs[w], s.vals[w])
		}
	}
	b.Run()
	sec, ok := b.SecEndNext()
	inPlace := ok && sec == inst.Sec
	if inPlace {
		s.shareBatch()
	}
	for k := 0; k < n; k++ {
		finished, end := true, b.Dyn()+1
		if inPlace && !b.Detached(k) {
			s.survivor(k)
		} else {
			finished, end = s.finish(k)
		}
		stats.Runs++
		stats.SimInstrs += end - (inst.BegDyn + 1)
		if !finished {
			// Perturbation diverged the section so far that it did not
			// complete; treat as worst case for this input.
			for oi := range amp.K {
				amp.K[oi][ii] = DiscreteK
			}
			s.src.rewind(s.seed, s.draws[k])
			return false
		}
		for oi := range amp.K {
			if q := s.mags[oi] / s.phis[k]; q > amp.K[oi][ii] {
				amp.K[oi][ii] = q
			}
		}
	}
	return true
}

// shareBatch starts reading the replicas of a batch stopped in front of
// the instance's SECEND: it compares once with the clean exit the output
// words every replica sees alike, and collects the words that are
// columns.
func (s *sampler) shareBatch() {
	b, exit := &s.batch, s.inst.Exit
	s.cols = s.cols[:0]
	for oi, out := range s.inst.IO.Outputs {
		mag := 0.0
		for a := uint64(out.Addr); a < uint64(out.Addr+out.Len); a++ {
			if v, ok := b.Word(a); ok {
				mag = wordDiff(mag, exit.Mem[a], v)
			} else {
				s.cols = append(s.cols, outWord{a, oi})
			}
		}
		s.shared[oi] = mag
	}
}

// survivor sets mags to the output magnitudes of lockstep replica k of
// the batch shareBatch last saw.
func (s *sampler) survivor(k int) {
	copy(s.mags, s.shared)
	for _, w := range s.cols {
		s.mags[w.out] = wordDiff(s.mags[w.out], s.inst.Exit.Mem[w.addr], s.batch.Read(k, w.addr))
	}
}

// finish materializes replica k onto the fork machine and runs it to the
// section's end on the scalar engine. It reports whether the section
// finished, setting mags if so, and the dynamic count the run ended at.
// The fork machine is reverted to the entry state before it returns.
func (s *sampler) finish(k int) (bool, uint64) {
	m, inst := &s.base, s.inst
	limit := m.MaxDyn
	m.BeginJournal()
	s.batch.MaterializeInto(k, m)
	finished := runToSecEnd(m, inst.Sec)
	end := m.Dyn
	if finished {
		for oi, out := range inst.IO.Outputs {
			s.mags[oi] = maxAbsDiff(out, inst.Exit, m)
		}
	}
	if m.UndoJournal() {
		m.CopyScalarsFrom(inst.Entry)
	} else {
		m.RestoreFrom(inst.Entry)
	}
	m.MaxDyn = limit
	return finished, end
}

// countingSource is a math/rand source that counts its draws, so the
// stream can be rewound to any point it has passed.
type countingSource struct {
	src rand.Source
	n   int64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Seed(seed int64) { c.n = 0; c.src.Seed(seed) }

// rewind positions the stream seeded with seed just after its n-th draw.
func (c *countingSource) rewind(seed, n int64) {
	c.Seed(seed)
	for c.n < n {
		c.Int63()
	}
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

// maxAbsDiff is the largest absolute difference between buffer b's words
// in clean and dirty, read as float64; a NaN difference makes it +Inf.
func maxAbsDiff(b spec.Buffer, clean, dirty *vm.Machine) float64 {
	mag := 0.0
	for a := b.Addr; a < b.Addr+b.Len; a++ {
		mag = wordDiff(mag, clean.Mem[a], dirty.Mem[a])
	}
	return mag
}

// wordDiff folds one word pair into a running maximum absolute
// difference mag, reading both words as float64: a NaN difference makes
// it +Inf, which nothing later lowers.
func wordDiff(mag float64, clean, dirty uint64) float64 {
	d := math.Abs(math.Float64frombits(clean) - math.Float64frombits(dirty))
	switch {
	case math.IsNaN(d):
		return math.Inf(1)
	case d > mag:
		return d
	}
	return mag
}
