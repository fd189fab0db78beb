// Package chisel implements the symbolic SDC propagation analysis (§4.4),
// modeled on Chisel: it composes per-section total SDC specifications
//
//	Δ(o_{s,k}) ≤ Σ_i K[k][i]·Δ(i_{s,i}) + φ_{s,k}
//
// along the developer-declared dataflow into a conservative affine
// end-to-end specification Δ(o_{T,λ}) ≤ f_{T,λ}(φ_{*,*}) — the paper's
// Equation 2. Dataflow between sections follows from buffer identity:
// memory words written by one section instance and read by a later one.
//
// Conservatism: where several symbolic bounds cover the words of one input
// buffer, their sum is used (sound because all coefficients are
// non-negative), and each section is assumed to amplify by its maximum
// observed factor.
package chisel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fastflip/internal/sens"
	"fastflip/internal/sym"
	"fastflip/internal/trace"
)

// dropSubUnityAmp, when set, makes Compose discard amplification factors
// below 1 — i.e. it disables the bound widening that keeps attenuating
// sections sound. It exists only as a seeded defect for the differential
// fuzzer (internal/diffcheck) to detect; production code never sets it.
var dropSubUnityAmp atomic.Bool

// SetDropSubUnityAmp toggles the seeded soundness defect used by the
// differential verification self-test and returns the previous value so
// tests can restore it.
func SetDropSubUnityAmp(on bool) bool { return dropSubUnityAmp.Swap(on) }

// Spec is the end-to-end SDC propagation specification for one traced
// execution.
type Spec struct {
	// Final[λ] bounds the SDC in final output λ as an affine expression of
	// the φ variables: f_{T,λ}(φ_{*,*}).
	Final []*sym.Expr

	termsOnce sync.Once
	terms     [][]term // terms[inst]: the φ_{inst,*} terms of every Final[λ]
}

// term is one φ_{inst,out} term of Final[λ], filed under its instance.
type term struct {
	λ, out int
	coef   float64
}

// Compose runs the propagation analysis over the trace. amps[i] is the
// amplification matrix of t.Instances[i].
func Compose(t *trace.Trace, amps []*sens.Amplification) (*Spec, error) {
	if len(amps) != len(t.Instances) {
		return nil, fmt.Errorf("chisel: %d amplification matrices for %d instances", len(amps), len(t.Instances))
	}
	// wordExpr[w] bounds the SDC currently present in memory word w; nil
	// means SDC-free (the paper's assumption for program inputs, §4.1).
	wordExpr := make([]*sym.Expr, t.Prog.MemWords)

	// exprOver sums the distinct bounds covering a buffer's words.
	exprOver := func(addr, length int) *sym.Expr {
		seen := make(map[*sym.Expr]bool)
		sum := sym.Zero()
		for w := addr; w < addr+length; w++ {
			e := wordExpr[w]
			if e == nil || seen[e] {
				continue
			}
			seen[e] = true
			sum.AddScaled(1, e)
		}
		return sum
	}

	for idx, inst := range t.Instances {
		amp := amps[idx]
		// Input bounds are taken before any of this instance's outputs are
		// written, so in-place updates (input buffer == output buffer) read
		// the upstream bound.
		inBounds := make([]*sym.Expr, len(inst.IO.Inputs))
		for ii, in := range inst.IO.Inputs {
			inBounds[ii] = exprOver(in.Addr, in.Len)
		}
		outExprs := make([]*sym.Expr, len(inst.IO.Outputs))
		for oi := range inst.IO.Outputs {
			e := sym.NewVar(sym.Var{Inst: idx, Out: oi})
			for ii := range inst.IO.Inputs {
				k := amp.K[oi][ii]
				if dropSubUnityAmp.Load() && k < 1 {
					k = 0
				}
				e.AddScaled(k, inBounds[ii])
			}
			outExprs[oi] = e
		}
		for oi, out := range inst.IO.Outputs {
			for w := out.Addr; w < out.Addr+out.Len; w++ {
				wordExpr[w] = outExprs[oi]
			}
		}
	}

	s := &Spec{Final: make([]*sym.Expr, len(t.Prog.FinalOutputs))}
	for λ, out := range t.Prog.FinalOutputs {
		s.Final[λ] = exprOver(out.Addr, out.Len)
	}
	return s, nil
}

// Bound evaluates the end-to-end bound on every final output for an error
// inside instance instIdx that introduced SDC magnitudes mags into that
// instance's outputs (the specialization f_{T,λ,s} of Equation 4: all φ
// variables of other instances are zero under the single-error model).
//
// Only instIdx's own terms are summed, in a fixed (λ, out) order. The
// other instances' terms are never evaluated: a chain of Discrete sections
// can drive their coefficients to +Inf, and +Inf × 0 would turn the whole
// bound into NaN. A zero magnitude contributes nothing for the same
// reason.
func (s *Spec) Bound(instIdx int, mags []float64) []float64 {
	bounds := make([]float64, len(s.Final))
	for λ, e := range s.Final {
		bounds[λ] = e.Const()
	}
	if terms := s.instanceTerms(); instIdx >= 0 && instIdx < len(terms) {
		for _, tm := range terms[instIdx] {
			if tm.out < len(mags) && mags[tm.out] != 0 {
				bounds[tm.λ] += tm.coef * mags[tm.out]
			}
		}
	}
	return bounds
}

// instanceTerms files every non-zero term of Final by instance, once.
// It reads Final rather than being filled by Compose, so hand-built specs
// work too.
func (s *Spec) instanceTerms() [][]term {
	s.termsOnce.Do(func() {
		for λ, e := range s.Final {
			for _, v := range e.Vars() {
				for len(s.terms) <= v.Inst {
					s.terms = append(s.terms, nil)
				}
				s.terms[v.Inst] = append(s.terms[v.Inst], term{λ: λ, out: v.Out, coef: e.Coef(v)})
			}
		}
	})
	return s.terms
}

// Bad reports whether an error in instance instIdx with per-output SDC
// magnitudes mags is SDC-Bad: some final output's bound exceeds its ε.
// eps must have one entry per final output.
func (s *Spec) Bad(instIdx int, mags []float64, eps []float64) bool {
	// An infinite magnitude marks a side-effect corruption (metrics.Outcome
	// contract): SDC-Bad regardless of ε and of the declared dataflow. The
	// explicit check matters because a zero path coefficient times +Inf
	// evaluates to NaN, which would otherwise fail every comparison below
	// and silently classify the experiment as benign.
	for _, m := range mags {
		if math.IsInf(m, 1) {
			return true
		}
	}
	for λ, b := range s.Bound(instIdx, mags) {
		if b > eps[λ] {
			return true
		}
	}
	return false
}

// Coefficient returns the total downstream amplification of φ_{instIdx,out}
// into final output λ — the numeric coefficients of Equation 2.
func (s *Spec) Coefficient(λ, instIdx, out int) float64 {
	return s.Final[λ].Coef(sym.Var{Inst: instIdx, Out: out})
}
