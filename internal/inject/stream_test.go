package inject

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"fastflip/internal/metrics"
	"fastflip/internal/prog"
	"fastflip/internal/record"
	"fastflip/internal/sites"
)

func streamKey(local int, bit uint8) sites.ClassKey {
	return sites.ClassKey{Static: prog.StaticID{Func: "f", Local: local}, Bit: bit}
}

// TestStreamRoundTrip: experiment (with and without a co-run final
// outcome), poison, and seal frames survive the wire intact and the
// stream ends with a clean io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)

	fin := metrics.Outcome{Kind: metrics.SDC, Magnitudes: []float64{2.5}}
	recs := []WALRecord{
		{Key: streamKey(1, 3), Out: metrics.Outcome{Kind: metrics.Masked}, Cost: Stats{Experiments: 1, SimInstrs: 10}},
		{Key: streamKey(2, 7), Out: metrics.Outcome{Kind: metrics.SDC, Magnitudes: []float64{1.5}}, Fin: &fin, Cost: Stats{Experiments: 1, SimInstrs: 20}},
	}
	for _, rec := range recs {
		if err := w.WriteExperiment(rec); err != nil {
			t.Fatal(err)
		}
	}
	poison := WALPoison{Key: streamKey(3, 0), Attempts: 2, MachineFP: 0xbeef, Stack: "stack"}
	if err := w.WritePoison(poison); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSeal(2); err != nil {
		t.Fatal(err)
	}

	r := NewStreamReader(&buf)
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != StreamExperiment {
			t.Fatalf("frame %d type %d, want experiment", i, got.Type)
		}
		if got.Experiment.Key != want.Key || got.Experiment.Out.Kind != want.Out.Kind {
			t.Errorf("frame %d: %+v, want %+v", i, got.Experiment, want)
		}
		if got.Experiment.Cost != want.Cost {
			t.Errorf("frame %d cost %+v, want %+v", i, got.Experiment.Cost, want.Cost)
		}
		if (got.Experiment.Fin == nil) != (want.Fin == nil) {
			t.Errorf("frame %d fin presence: got %v, want %v", i, got.Experiment.Fin, want.Fin)
		}
	}
	got, err := r.Next()
	if err != nil || got.Type != StreamPoison {
		t.Fatalf("poison frame: %+v, %v", got, err)
	}
	if got.Poison.Key != poison.Key || got.Poison.Attempts != 2 || got.Poison.MachineFP != 0xbeef || got.Poison.Stack != "stack" {
		t.Errorf("poison round trip: %+v", got.Poison)
	}
	got, err = r.Next()
	if err != nil || got.Type != StreamSeal || got.Seal != 2 {
		t.Fatalf("seal frame: %+v, %v", got, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("past the seal: %v, want io.EOF", err)
	}
}

// TestStreamCutMidFrame: a connection dropped inside a frame surfaces as
// io.ErrUnexpectedEOF — partial, not clean end-of-stream.
func TestStreamCutMidFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	if err := w.WriteExperiment(WALRecord{Key: streamKey(1, 0), Cost: Stats{Experiments: 1}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{3, 9, len(whole) - 1} {
		r := NewStreamReader(bytes.NewReader(whole[:cut]))
		if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestStreamCorruption: a flipped payload byte fails the checksum, and a
// hostile frame length is rejected before allocation.
func TestStreamCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStreamWriter(&buf).WriteSeal(1); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)-1] ^= 0xff
	if _, err := NewStreamReader(bytes.NewReader(data)).Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("corrupt payload: %v, want checksum error", err)
	}

	huge := binary.LittleEndian.AppendUint32(nil, uint32(record.MaxPayload+1))
	huge = append(huge, 0, 0, 0, 0)
	if _, err := NewStreamReader(bytes.NewReader(huge)).Next(); err == nil {
		t.Error("overlong frame length accepted")
	}
}

// syntheticClasses builds classes whose pilots are deliberately NOT in
// class-index order, so ordering bugs cannot hide.
func syntheticClasses(pilots ...uint64) []*sites.Class {
	classes := make([]*sites.Class, len(pilots))
	for i, p := range pilots {
		classes[i] = &sites.Class{Key: streamKey(i, 0), Members: []uint64{p}}
	}
	return classes
}

func TestDynOrderSortedStable(t *testing.T) {
	classes := syntheticClasses(30, 10, 20, 10, 40)
	order := DynOrder(classes)
	want := []int{1, 3, 2, 0, 4} // pilots 10,10 (tie by index), 20, 30, 40
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestScheduledRangeAndSkip: the shard range selects positions of the
// canonical order, the skip vector then filters class indices, and
// out-of-bounds ranges clamp instead of panicking.
func TestScheduledRangeAndSkip(t *testing.T) {
	classes := syntheticClasses(30, 10, 20, 10, 40) // order: 1,3,2,0,4
	cases := []struct {
		name  string
		hooks CampaignHooks
		want  []int
	}{
		{"all", CampaignHooks{}, []int{1, 3, 2, 0, 4}},
		{"range", CampaignHooks{Range: &ShardRange{Lo: 1, Hi: 4}}, []int{3, 2, 0}},
		{"rangeAndSkip", CampaignHooks{Range: &ShardRange{Lo: 1, Hi: 4}, Skip: []bool{false, false, true, false, false}}, []int{3, 0}},
		{"clampLow", CampaignHooks{Range: &ShardRange{Lo: -5, Hi: 2}}, []int{1, 3}},
		{"clampHigh", CampaignHooks{Range: &ShardRange{Lo: 3, Hi: 99}}, []int{0, 4}},
		{"inverted", CampaignHooks{Range: &ShardRange{Lo: 4, Hi: 2}}, nil},
		{"skipAll", CampaignHooks{Skip: []bool{true, true, true, true, true}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.hooks.scheduled(classes)
			if len(got) != len(tc.want) {
				t.Fatalf("scheduled %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("scheduled %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestRunSectionResumeRangePartition: running a section as disjoint shard
// ranges on separate injectors reproduces the whole-section campaign
// exactly — the invariant distributed campaigns rest on.
func TestRunSectionResumeRangePartition(t *testing.T) {
	tr, inj := recorded(t)
	inst := tr.Instances[0]
	classes := sites.ForInstance(tr, inst, sites.Options{Prune: true})
	whole, wholeStats := inj.RunSection(context.Background(), inst, classes)

	mid := len(classes) / 2
	got := make([]metrics.Outcome, len(classes))
	var stats Stats
	for _, rng := range []ShardRange{{Lo: 0, Hi: mid}, {Lo: mid, Hi: len(classes)}} {
		rng := rng
		hooks := CampaignHooks{Range: &rng, Record: func(i int, out metrics.Outcome, _ *metrics.Outcome, _ Stats) {
			got[i] = out
		}}
		shard := &Injector{T: tr, Workers: 2}
		_, _, s := shard.RunSectionResume(context.Background(), inst, classes, false, hooks)
		stats.Add(s)
	}
	if stats.Experiments != wholeStats.Experiments || stats.SimInstrs != wholeStats.SimInstrs {
		t.Errorf("sharded stats %+v, whole %+v", stats, wholeStats)
	}
	for i := range classes {
		if got[i].Kind != whole[i].Kind || got[i].MaxMagnitude() != whole[i].MaxMagnitude() {
			t.Errorf("class %d: sharded %+v, whole %+v", i, got[i], whole[i])
		}
	}
}
