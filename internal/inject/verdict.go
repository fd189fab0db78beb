package inject

import (
	"slices"

	"fastflip/internal/metrics"
	"fastflip/internal/spec"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// A section verdict compares what the injected instance leaves in its
// declared outputs and its live-only words (liveSpans) with the clean exit
// state, inst.Exit. It reads only the words that can differ from the exit.
// An experiment forks off its worker's clean cursor, so the faulty machine
// differs from the cursor only at the words it wrote (its journal), and
// the cursor differs from the exit only at the words of its diff set D. A
// verdict therefore costs O(|D| + journal), not a scan of every compared
// buffer; only a fork whose journal overflowed, or one that did not fork
// off a cursor, scans every compared word.

// verdictCheck, when non-nil, observes every section verdict together with
// a machine in the state it judges: at the instance's SECEND, or, for a
// survivor classified inside its batch, the survivor materialized and run
// to that SECEND. Only tests set it (export_test.go), to hold the
// classifier to a reference.
var verdictCheck func(inst *trace.Instance, m *vm.Machine, got metrics.Outcome)

// roleLive marks a live-only word: any difference from the exit is a side
// effect the verdict cannot bound.
const roleLive = -1

// roles maps the memory words of a section instance to their part in its
// verdict. A campaign builds it once; its workers share it read-only.
type roles struct {
	inst  *trace.Instance
	exit  []uint64       // inst.Exit.Mem
	kinds []spec.BufKind // kinds[k] is output k's kind
	// role[a-lo] is word a's role: 0 when it is not compared, roleLive,
	// r in [1, len(kinds)] for output r-1 alone, and r above that for the
	// outputs sets[r-len(kinds)-1]. The spec allows overlapping outputs,
	// and a word inside several counts toward each.
	lo    int
	role  []int32
	sets  [][]int
	words []int // the compared words, ascending
}

// newRoles builds the role table of inst from its outputs and liveSpans.
func newRoles(inst *trace.Instance) *roles {
	outs, live := inst.IO.Outputs, liveSpans(inst)
	r := &roles{inst: inst, exit: inst.Exit.Mem, kinds: make([]spec.BufKind, len(outs))}
	lo, hi := len(r.exit), 0
	widen := func(a, b int) {
		if a < b {
			lo, hi = min(lo, a), max(hi, b)
		}
	}
	for k, ob := range outs {
		r.kinds[k] = ob.Kind
		widen(ob.Addr, ob.Addr+ob.Len)
	}
	for _, s := range live {
		widen(s.lo, s.hi)
	}
	if lo >= hi {
		return r
	}
	r.lo, r.role = lo, make([]int32, hi-lo)
	for k, ob := range outs {
		for a := ob.Addr; a < ob.Addr+ob.Len; a++ {
			r.role[a-lo] = r.join(r.role[a-lo], k)
		}
	}
	for _, s := range live {
		for a := s.lo; a < s.hi; a++ {
			r.role[a-lo] = roleLive
		}
	}
	r.words = make([]int, 0, len(r.role))
	for i, x := range r.role {
		if x != 0 {
			r.words = append(r.words, lo+i)
		}
	}
	return r
}

// join returns the role of a word with role x that also lies in output k.
func (r *roles) join(x int32, k int) int32 {
	n := len(r.kinds)
	switch {
	case x == 0:
		return int32(k + 1)
	case int(x) <= n:
		return r.setRole([]int{int(x) - 1, k})
	}
	return r.setRole(append(slices.Clone(r.sets[int(x)-n-1]), k))
}

// setRole returns the role of the output set outs, adding the set if it
// is new.
func (r *roles) setRole(outs []int) int32 {
	i := slices.IndexFunc(r.sets, func(s []int) bool { return slices.Equal(s, outs) })
	if i < 0 {
		i = len(r.sets)
		r.sets = append(r.sets, outs)
	}
	return int32(len(r.kinds) + 1 + i)
}

// roleOf returns the role of any memory word.
func (r *roles) roleOf(a uint64) int32 {
	if i := a - uint64(r.lo); i < uint64(len(r.role)) {
		return r.role[i]
	}
	return 0
}

// add accumulates into t the faulty value v of compared word a, which has
// role x.
func (r *roles) add(t *tally, x int32, a int, v uint64) {
	c := r.exit[a]
	switch {
	case v == c:
	case x == roleLive:
		t.live = true
	case int(x) <= len(r.kinds):
		t.output(r.kinds, int(x)-1, c, v)
	default:
		for _, k := range r.sets[int(x)-len(r.kinds)-1] {
			t.output(r.kinds, k, c, v)
		}
	}
}

// tally accumulates a section verdict word by word. Every field is a max
// or an or, so the verdict does not depend on the order in which words
// are added, or on how often.
type tally struct {
	mags      []float64 // per output buffer
	malformed bool      // NaN/Inf introduced into a float output
	live      bool      // a live-only word differs
}

func (t *tally) reset() *tally {
	clear(t.mags)
	t.malformed, t.live = false, false
	return t
}

// output accumulates one differing word of output k.
func (t *tally) output(kinds []spec.BufKind, k int, clean, dirty uint64) {
	mag, bad := metrics.WordDiff(kinds[k], clean, dirty)
	t.malformed = t.malformed || bad
	if mag > t.mags[k] {
		t.mags[k] = mag
	}
}

// outcome is the verdict: Detected on malformed output; otherwise the
// conservative SDC on a live side effect; otherwise SDC with the
// per-output magnitudes, or Masked.
func (t *tally) outcome() metrics.Outcome {
	switch {
	case t.malformed:
		return metrics.Outcome{Kind: metrics.Detected, Reason: metrics.DetectBadOutput}
	case t.live:
		return ConservativeSDC(len(t.mags))
	}
	for _, m := range t.mags {
		if m != 0 {
			return metrics.Outcome{Kind: metrics.SDC, Magnitudes: slices.Clone(t.mags)}
		}
	}
	return metrics.Outcome{Kind: metrics.Masked}
}

// cursorDiff is one worker's side of a section verdict: the diff set D of
// the compared words where its clean cursor differs from the instance's
// exit, kept in step with the cursor, and the scratch its verdicts
// accumulate in.
type cursorDiff struct {
	*roles
	d   []int   // D's words, unordered
	at  []int32 // at[a-lo] is 1 + the index of word a in d, 0 outside D
	all bool    // no cursor to diff against: scan every compared word

	t      tally // the verdict being accumulated
	shared tally // a batch's words every replica sees alike
	cols   []int // a batch's compared column words
}

// cursor returns a worker's cursorDiff over r with D built from the clean
// cursor cur. A nil cur gives one whose verdicts scan every compared word,
// for machines that fork off a checkpoint rather than a cursor.
func (r *roles) cursor(cur *vm.Machine) *cursorDiff {
	cd := &cursorDiff{
		roles:  r,
		at:     make([]int32, len(r.role)),
		all:    cur == nil,
		t:      tally{mags: make([]float64, len(r.kinds))},
		shared: tally{mags: make([]float64, len(r.kinds))},
	}
	if cur != nil {
		cd.reset(cur)
	}
	return cd
}

// reset rebuilds D from scratch in O(compared words): at the start of a
// chunk, after the cursor's journal overflowed, and after a panic
// rebuilt the cursor.
func (cd *cursorDiff) reset(cur *vm.Machine) {
	for _, a := range cd.d {
		cd.at[a-cd.lo] = 0
	}
	cd.d = cd.d[:0]
	for _, a := range cd.words {
		if cur.Mem[a] != cd.exit[a] {
			cd.mark(a, true)
		}
	}
}

// advance brings D up to date after the cursor ran under a journal: only
// the words it wrote can have entered or left D.
func (cd *cursorDiff) advance(cur *vm.Machine) {
	if cur.JournalOverflowed() {
		cd.reset(cur)
		return
	}
	for i, n := 0, cur.JournalLen(); i < n; i++ {
		if a := cur.JournalAddr(i); cd.roleOf(a) != 0 {
			cd.mark(int(a), cur.Mem[a] != cd.exit[a])
		}
	}
}

// mark puts compared word a in D or takes it out, in O(1).
func (cd *cursorDiff) mark(a int, in bool) {
	p := &cd.at[a-cd.lo]
	switch {
	case in && *p == 0:
		cd.d = append(cd.d, a)
		*p = int32(len(cd.d))
	case !in && *p != 0:
		i, last := *p-1, cd.d[len(cd.d)-1]
		cd.d[i] = last
		cd.at[last-cd.lo] = i + 1
		cd.d = cd.d[:len(cd.d)-1]
		*p = 0
	}
}

// verdict classifies machine m, stopped at the instance's own SECEND. It
// reads D and m's journal, or every compared word when the journal
// overflowed or m did not fork off the cursor.
func (cd *cursorDiff) verdict(m *vm.Machine) metrics.Outcome {
	t := cd.t.reset()
	if cd.all || m.JournalOverflowed() {
		for _, a := range cd.words {
			cd.add(t, cd.role[a-cd.lo], a, m.Mem[a])
		}
	} else {
		for _, a := range cd.d {
			cd.add(t, cd.role[a-cd.lo], a, m.Mem[a])
		}
		for i, n := 0, m.JournalLen(); i < n; i++ {
			a := m.JournalAddr(i)
			if x := cd.roleOf(a); x != 0 {
				cd.add(t, x, int(a), m.Mem[a])
			}
		}
	}
	out := t.outcome()
	if verdictCheck != nil {
		verdictCheck(cd.inst, m, out)
	}
	return out
}

// shareBatch starts the in-batch verdicts of a batch that forked off the
// cursor and stopped in front of the instance's SECEND. It accumulates
// once the compared words every replica sees alike (D's words and the
// touched words that are not columns) and collects the compared column
// words, which survivor adds per replica.
func (cd *cursorDiff) shareBatch(b *vm.Batch) {
	t := cd.shared.reset()
	cd.cols = cd.cols[:0]
	for _, a := range cd.d {
		if v, ok := b.Word(uint64(a)); ok {
			cd.add(t, cd.role[a-cd.lo], a, v)
		}
	}
	for _, a := range b.Touched() {
		x := cd.roleOf(a)
		if x == 0 {
			continue
		}
		if v, ok := b.Word(a); ok {
			cd.add(t, x, int(a), v)
		} else {
			cd.cols = append(cd.cols, int(a))
		}
	}
}

// survivor returns the verdict of active replica k of the batch
// shareBatch last saw: the scalar epilogue's verdict at the SECEND the
// replica executes next. base is the batch's fork machine; it is read
// only to show the verdict to verdictCheck.
func (cd *cursorDiff) survivor(b *vm.Batch, k int, base *vm.Machine) metrics.Outcome {
	t := &cd.t
	copy(t.mags, cd.shared.mags)
	t.malformed, t.live = cd.shared.malformed, cd.shared.live
	for _, a := range cd.cols {
		cd.add(t, cd.role[a-cd.lo], a, b.Read(k, uint64(a)))
	}
	out := t.outcome()
	if verdictCheck != nil {
		m := base.Clone()
		b.MaterializeInto(k, m)
		m.RunToEvent(vm.NoStop)
		verdictCheck(cd.inst, m, out)
	}
	return out
}
