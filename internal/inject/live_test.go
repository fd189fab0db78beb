package inject

import (
	"fmt"
	"slices"
	"testing"

	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// liveSideEffectRef is the per-word reference for liveSpans plus the live
// role of a verdict: every live word is tested against every output
// buffer.
func liveSideEffectRef(inst *trace.Instance, m *vm.Machine) bool {
	for _, lb := range inst.IO.Live {
	word:
		for i := 0; i < lb.Len; i++ {
			addr := lb.Addr + i
			for _, ob := range inst.IO.Outputs {
				if addr >= ob.Addr && addr < ob.Addr+ob.Len {
					continue word
				}
			}
			if m.Mem[addr] != inst.Exit.Mem[addr] {
				return true
			}
		}
	}
	return false
}

// TestLiveSpansMatchReference checks liveSpans against hand-derived ranges,
// and the live role of a verdict against the per-word reference (and the
// whole verdict against referenceVerdict) with a corruption at every
// memory word, one at a time.
func TestLiveSpansMatchReference(t *testing.T) {
	buf := func(addr, n int) spec.Buffer { return spec.Buffer{Addr: addr, Len: n} }
	const memWords = 40
	for _, tc := range []struct {
		name          string
		live, outputs []spec.Buffer
		want          []span
	}{
		{"no outputs", []spec.Buffer{buf(4, 6)}, nil, []span{{4, 10}}},
		{"disjoint output", []spec.Buffer{buf(4, 6)}, []spec.Buffer{buf(20, 4)}, []span{{4, 10}}},
		{"output splits live", []spec.Buffer{buf(0, 20)}, []spec.Buffer{buf(8, 4)}, []span{{0, 8}, {12, 20}}},
		{"output at low edge", []spec.Buffer{buf(5, 10)}, []spec.Buffer{buf(2, 6)}, []span{{8, 15}}},
		{"output at high edge", []spec.Buffer{buf(5, 10)}, []spec.Buffer{buf(12, 6)}, []span{{5, 12}}},
		{"output flush with both edges", []spec.Buffer{buf(5, 10)}, []spec.Buffer{buf(5, 10)}, nil},
		{"output covers live", []spec.Buffer{buf(5, 10)}, []spec.Buffer{buf(0, 30)}, nil},
		{"adjacent outputs", []spec.Buffer{buf(0, 20)}, []spec.Buffer{buf(10, 3), buf(4, 3), buf(7, 3)}, []span{{0, 4}, {13, 20}}},
		{"overlapping outputs", []spec.Buffer{buf(0, 20)}, []spec.Buffer{buf(9, 6), buf(3, 8), buf(12, 2)}, []span{{0, 3}, {15, 20}}},
		{"gaps between outputs", []spec.Buffer{buf(0, 12)}, []spec.Buffer{buf(8, 2), buf(2, 2)}, []span{{0, 2}, {4, 8}, {10, 12}}},
		{"zero-length live", []spec.Buffer{buf(6, 0), buf(10, 2)}, []spec.Buffer{buf(0, 3)}, []span{{10, 12}}},
		{"zero-length output", []spec.Buffer{buf(0, 10)}, []spec.Buffer{buf(5, 0)}, []span{{0, 10}}},
		{"two live buffers", []spec.Buffer{buf(0, 6), buf(20, 6)}, []spec.Buffer{buf(4, 18)}, []span{{0, 4}, {22, 26}}},
		{"no live", nil, []spec.Buffer{buf(0, 6)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := &trace.Instance{
				IO:   spec.InstanceIO{Live: tc.live, Outputs: tc.outputs},
				Exit: vm.New(nil, 0, memWords),
			}
			for a := range inst.Exit.Mem {
				inst.Exit.Mem[a] = uint64(a) * 0x9e3779b9
			}
			live := liveSpans(inst)
			if !slices.Equal(live, tc.want) {
				t.Fatalf("liveSpans = %v, want %v", live, tc.want)
			}
			cd := newRoles(inst).cursor(nil)
			m := inst.Exit.Clone()
			if cd.verdict(m); cd.t.live {
				t.Fatal("clean exit state reported as a side effect")
			}
			for a := range m.Mem {
				m.Mem[a] ^= 1
				out := cd.verdict(m)
				if got, want := cd.t.live, liveSideEffectRef(inst, m); got != want {
					t.Errorf("%s: corrupt word %d: live side effect %v, reference %v", fmt.Sprint(tc.live), a, got, want)
				}
				if want := referenceVerdict(inst, m); !sameOutcome(out, want) {
					t.Errorf("%s: corrupt word %d: verdict %+v, reference %+v", fmt.Sprint(tc.live), a, out, want)
				}
				m.Mem[a] ^= 1
			}
		})
	}
}
