package sites

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fastflip/internal/bench"
	"fastflip/internal/maskelide"
	"fastflip/internal/trace"
)

// referenceClassify is the classifier classify replaced: one map lookup
// per site keyed by ClassKey, then a sort of every class by key and, for
// singletons, by member. It is kept as the oracle for the pc-indexed pass.
func referenceClassify(t *trace.Trace, lo, hi uint64, opts Options) []*Class {
	width := opts.width()
	per := SitesPerOperand(width)
	byKey := make(map[ClassKey]*Class)
	var classes []*Class
	for d := lo; d < hi; d++ {
		pc := int(t.PCs[d])
		static := t.Prog.Linked.StaticIDOf(pc)
		for _, op := range t.Prog.Linked.Code[pc].Operands(nil) {
			for bit := 0; bit < per; bit++ {
				key := ClassKey{Static: static, Role: op.Role, Bit: uint8(bit)}
				c := byKey[key]
				if c == nil || !opts.Prune {
					c = &Class{Key: key, Class: op.Class, Reg: op.Reg, Width: uint8(width),
						Elided: opts.Masks != nil && opts.Masks.SiteElidable(pc, op, uint8(bit), uint8(width))}
					byKey[key] = c
					classes = append(classes, c)
				}
				c.Members = append(c.Members, d)
			}
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		a, b := classes[i].Key, classes[j].Key
		if a.Static.Func != b.Static.Func {
			return a.Static.Func < b.Static.Func
		}
		if a.Static.Local != b.Static.Local {
			return a.Static.Local < b.Static.Local
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		if a.Bit != b.Bit {
			return a.Bit < b.Bit
		}
		return classes[i].Members[0] < classes[j].Members[0]
	})
	return classes
}

// sameClasses reports the first class where got and want differ, comparing
// the classes themselves rather than their addresses.
func sameClasses(t *testing.T, scope string, got, want []*Class) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d classes, reference has %d", scope, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("%s: class %d = %+v, reference %+v", scope, i, *got[i], *want[i])
		}
	}
}

func TestClassifyMatchesReference(t *testing.T) {
	for _, name := range bench.Names() {
		for _, v := range bench.Variants {
			tr, err := trace.Record(bench.MustBuild(name, v))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Prune: true, Masks: maskelide.Analyze(tr.Prog.Linked)}
			for i, inst := range tr.Instances {
				got := ForInstance(tr, inst, opts)
				want := referenceClassify(tr, inst.BegDyn+1, inst.EndDyn, opts)
				sameClasses(t, fmt.Sprintf("%s/%s instance %d", name, v, i), got, want)
			}
		}
	}
	unpruned := Options{Width: 4}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"pipeline", recorded(t)},
		{"sha2", mustRecord(t, "sha2")},
	} {
		got := Global(tc.tr, unpruned)
		want := referenceClassify(tc.tr, tc.tr.ROIBeg+1, tc.tr.ROIEnd, unpruned)
		sameClasses(t, tc.name+"/global unpruned", got, want)
	}
}

func mustRecord(t *testing.T, name string) *trace.Trace {
	t.Helper()
	tr, err := trace.Record(bench.MustBuild(name, bench.None))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Classes of one static instruction share a member array, so appending to
// one class's members must copy rather than write into a sibling's. The
// loop of SHA2's message schedule (its second instance) runs each
// instruction up to 49 times, so unpruned singletons of one instruction
// are neighbours in that array too.
func TestMembersCapacityClipped(t *testing.T) {
	tr := mustRecord(t, "sha2")
	for _, prune := range []bool{true, false} {
		classes := ForInstance(tr, tr.Instances[1], Options{Prune: prune})
		shared := 0
		want := make([][]uint64, len(classes))
		for i, c := range classes {
			want[i] = slices.Clone(c.Members)
			if i > 0 && c.Key.Static == classes[i-1].Key.Static &&
				&c.Members[0] == &classes[i-1].Members[0] {
				shared++
			}
		}
		if prune && (shared == 0 || !slices.ContainsFunc(classes, func(c *Class) bool { return c.Size() > 1 })) {
			t.Fatal("fixture has no looped instruction whose classes share members")
		}
		grown := make([][]uint64, len(classes))
		for i, c := range classes {
			grown[i] = append(c.Members, ^uint64(0))
		}
		for i, c := range classes {
			if !slices.Equal(c.Members, want[i]) {
				t.Fatalf("prune=%v: appends changed the members of %v: %v, want %v",
					prune, c.Key, c.Members, want[i])
			}
			if &grown[i][0] == &c.Members[0] {
				t.Fatalf("prune=%v: append to %v wrote into the shared array", prune, c.Key)
			}
		}
	}
}
