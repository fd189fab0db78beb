package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"fastflip/internal/qcheck"
	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

func machines(words int) (clean, dirty *vm.Machine) {
	return vm.New(nil, 0, words), vm.New(nil, 0, words)
}

func setF(m *vm.Machine, addr int, v float64) { m.Mem[addr] = math.Float64bits(v) }

func TestCompareMasked(t *testing.T) {
	clean, dirty := machines(4)
	setF(clean, 0, 1.5)
	setF(dirty, 0, 1.5)
	out := Compare([]spec.Buffer{{Addr: 0, Len: 4, Kind: spec.Float}}, clean, dirty)
	if out.Kind != Masked || out.Magnitudes != nil {
		t.Errorf("outcome = %+v", out)
	}
}

func TestCompareFloatSDC(t *testing.T) {
	clean, dirty := machines(4)
	setF(clean, 0, 1.0)
	setF(dirty, 0, 1.25)
	setF(clean, 2, -3.0)
	setF(dirty, 2, -3.5)
	out := Compare([]spec.Buffer{{Addr: 0, Len: 4, Kind: spec.Float}}, clean, dirty)
	if out.Kind != SDC {
		t.Fatalf("kind = %v", out.Kind)
	}
	if out.Magnitudes[0] != 0.5 {
		t.Errorf("magnitude = %v, want 0.5 (max element-wise)", out.Magnitudes[0])
	}
	if out.MaxMagnitude() != 0.5 {
		t.Errorf("MaxMagnitude = %v", out.MaxMagnitude())
	}
}

func TestComparePerBufferMagnitudes(t *testing.T) {
	clean, dirty := machines(4)
	setF(clean, 0, 1)
	setF(dirty, 0, 2)
	setF(clean, 1, 5)
	setF(dirty, 1, 5)
	bufs := []spec.Buffer{
		{Name: "a", Addr: 0, Len: 1, Kind: spec.Float},
		{Name: "b", Addr: 1, Len: 1, Kind: spec.Float},
	}
	out := Compare(bufs, clean, dirty)
	if out.Kind != SDC || out.Magnitudes[0] != 1 || out.Magnitudes[1] != 0 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestCompareNaNIsDetected(t *testing.T) {
	clean, dirty := machines(2)
	setF(clean, 0, 1.0)
	setF(dirty, 0, math.NaN())
	out := Compare([]spec.Buffer{{Addr: 0, Len: 2, Kind: spec.Float}}, clean, dirty)
	if out.Kind != Detected || out.Reason != DetectBadOutput {
		t.Errorf("outcome = %+v", out)
	}
}

func TestCompareInfIsDetected(t *testing.T) {
	clean, dirty := machines(2)
	setF(clean, 0, 1.0)
	setF(dirty, 0, math.Inf(-1))
	out := Compare([]spec.Buffer{{Addr: 0, Len: 2, Kind: spec.Float}}, clean, dirty)
	if out.Kind != Detected || out.Reason != DetectBadOutput {
		t.Errorf("outcome = %+v", out)
	}
}

func TestCleanNaNStaysComparable(t *testing.T) {
	// If the clean output already holds a NaN, a *different* NaN bit
	// pattern is not "malformed" — but it is also not the same word, so it
	// surfaces as an SDC rather than Detected.
	clean, dirty := machines(1)
	clean.Mem[0] = math.Float64bits(math.NaN())
	dirty.Mem[0] = math.Float64bits(math.NaN()) ^ 1
	out := Compare([]spec.Buffer{{Addr: 0, Len: 1, Kind: spec.Float}}, clean, dirty)
	if out.Kind == Detected {
		t.Errorf("clean-NaN buffer misclassified as malformed: %+v", out)
	}
}

func TestCompareIntBuffer(t *testing.T) {
	clean, dirty := machines(2)
	clean.Mem[0] = 100
	dirty.Mem[0] = 92
	out := Compare([]spec.Buffer{{Addr: 0, Len: 2, Kind: spec.Int}}, clean, dirty)
	if out.Kind != SDC || out.Magnitudes[0] != 8 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestIntDiffSigned(t *testing.T) {
	clean, dirty := machines(1)
	var neg5 int64 = -5
	clean.Mem[0] = uint64(neg5)
	dirty.Mem[0] = 3
	mag, _ := BufferDiff(spec.Buffer{Addr: 0, Len: 1, Kind: spec.Int}, clean, dirty)
	if mag != 8 {
		t.Errorf("|-5 - 3| = %v, want 8", mag)
	}
}

func TestIntDiffExtremes(t *testing.T) {
	clean, dirty := machines(1)
	var lo int64 = math.MinInt64
	clean.Mem[0] = uint64(lo)
	var hi int64 = math.MaxInt64
	dirty.Mem[0] = uint64(hi)
	mag, _ := BufferDiff(spec.Buffer{Addr: 0, Len: 1, Kind: spec.Int}, clean, dirty)
	if mag <= 0 || math.IsInf(mag, 0) || math.IsNaN(mag) {
		t.Errorf("extreme diff = %v", mag)
	}
}

// Property: the magnitude metric is symmetric and zero iff equal.
func TestBufferDiffMetricQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		clean, dirty := machines(1)
		clean.Mem[0] = a
		dirty.Mem[0] = b
		m1, _ := BufferDiff(spec.Buffer{Addr: 0, Len: 1, Kind: spec.Int}, clean, dirty)
		m2, _ := BufferDiff(spec.Buffer{Addr: 0, Len: 1, Kind: spec.Int}, dirty, clean)
		if m1 != m2 {
			return false
		}
		return (m1 == 0) == (a == b)
	}
	if err := quick.Check(f, qcheck.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	for _, k := range []OutcomeKind{Masked, SDC, Detected} {
		if k.String() == "" {
			t.Errorf("kind %d empty string", k)
		}
	}
	for _, r := range []DetectReason{DetectNone, DetectCrash, DetectTimeout, DetectBadOutput} {
		if r.String() == "" {
			t.Errorf("reason %d empty string", r)
		}
	}
}

// TestWordDiffRule pins the per-word rule every verdict shares: equal
// words and a clean NaN contribute nothing, NaN or Inf introduced into a
// finite float is malformed, and integers differ by their signed distance.
func TestWordDiffRule(t *testing.T) {
	f := math.Float64bits
	for _, tc := range []struct {
		name         string
		kind         spec.BufKind
		clean, dirty uint64
		mag          float64
		malformed    bool
	}{
		{"equal", spec.Float, f(2), f(2), 0, false},
		{"float", spec.Float, f(2), f(-1.5), 3.5, false},
		{"signed zero", spec.Float, f(0), f(math.Copysign(0, -1)), 0, false},
		{"NaN introduced", spec.Float, f(2), f(math.NaN()), 0, true},
		{"Inf introduced", spec.Float, f(2), f(math.Inf(-1)), 0, true},
		{"NaN replaced", spec.Float, f(math.NaN()), f(2), 0, false},
		{"Inf replaced", spec.Float, f(math.Inf(1)), f(2), math.Inf(1), false},
		{"NaN into Inf", spec.Float, f(math.Inf(1)), f(math.NaN()), 0, false},
		{"int", spec.Int, 5, ^uint64(2), 8, false},
		{"int extremes", spec.Int, 1 << 63, 1<<63 - 1, math.Exp2(64), false},
	} {
		mag, bad := WordDiff(tc.kind, tc.clean, tc.dirty)
		if mag != tc.mag || bad != tc.malformed {
			t.Errorf("%s: WordDiff = %v, %v; want %v, %v", tc.name, mag, bad, tc.mag, tc.malformed)
		}
	}
}
