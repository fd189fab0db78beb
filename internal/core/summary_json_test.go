package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fullSummary populates every field, including the omitempty degraded/
// poisoned/resumed bookkeeping and every Telemetry field — the fields the
// ffserved API and fastflip -json must not drop.
func fullSummary() *Summary {
	return &Summary{
		Bench:             "lud",
		Variant:           "small",
		Program:           "lud",
		Epsilon:           0.125,
		SiteCount:         4096,
		DynInstrs:         123456,
		Instances:         8,
		Reused:            6,
		Injected:          2,
		StaticExecuted:    40,
		StaticTotal:       44,
		FFExperiments:     2048,
		FFSimInstrs:       999999,
		ElidedExperiments: 96,
		ElidedSimInstrs:   48000,
		Poisoned: []PoisonSummary{{
			Class:     "k1+3/dst.bit7",
			Attempts:  2,
			MachineFP: "00000000deadbeef",
			Stack:     "goroutine 1 [running]:\nexample",
		}},
		HardenedTarget:     0.95,
		ResidualSDC:        120,
		PredictedResidual:  150,
		DetectorCoverage:   0.93,
		DetectorTriggers:   640,
		ProtectionOverhead: 0.42,
		HardenedAsm:        "func main {\n    halt\n}\n",
		Outcomes:           OutcomeStats{Masked: 1000, Detected: 500, SDCGood: 300, SDCBad: 200, Untested: 48},
		Baseline: &BaselineSummary{
			Experiments:       4096,
			SimInstrs:         5000000,
			ElidedExperiments: 128,
			ElidedSimInstrs:   64000,
			Speedup:           3.2,
		},
		Targets: []TargetSummary{{
			Target:       0.95,
			Adjusted:     0.97,
			Achieved:     0.961,
			FFCostFrac:   0.4,
			BaseCostFrac: 0.45,
			CostDiff:     -0.05,
			ErrRange:     0.02,
			WithinRange:  true,
			Selected:     []string{"k1+0", "k1+3"},
			SelectedCost: 77,
		}},
		Telemetry: Telemetry{
			FFWall:                 1500 * time.Millisecond,
			FFCleanInstrs:          1111,
			FFFaultyInstrs:         2222,
			BatchedExperiments:     1800,
			BatchReplicasAvg:       112.5,
			ResumedExperiments:     512,
			WALNotes:               []string{"torn tail truncated (17 bytes)", "lock conflict on k3"},
			WALDegraded:            true,
			PanicRetries:           3,
			RemoteExperiments:      1024,
			ShardsMerged:           12,
			HedgedDispatches:       2,
			Releases:               5,
			SharedHits:             7,
			SharedMisses:           1,
			BaseWall:               9 * time.Second,
			BaseCleanInstrs:        4000,
			BaseFaultyInstrs:       5000,
			BaseBatchedExperiments: 3900,
		},
	}
}

// TestFullSummarySetsEveryTelemetryField keeps the round-trip tests
// honest: encoding/json silently drops a key that an embedded field shares
// with an outer one, and a zero field would round-trip without proving
// anything. A counter added to Telemetry later fails here until
// fullSummary sets it.
func TestFullSummarySetsEveryTelemetryField(t *testing.T) {
	v := reflect.ValueOf(fullSummary().Telemetry)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullSummary leaves Telemetry.%s zero", v.Type().Field(i).Name)
		}
	}
}

// TestSummaryJSONRoundTrip: encode/decode must preserve every field,
// in particular the degraded/poisoned/resumed bookkeeping.
func TestSummaryJSONRoundTrip(t *testing.T) {
	want := fullSummary()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the summary:\nwant %+v\ngot  %+v", want, &got)
	}
}

// TestSummaryOmitEmpty: a summary without WAL/poison/baseline state keeps
// those keys out of the wire format entirely (clients feature-detect by
// key presence), while always-on keys stay.
func TestSummaryOmitEmpty(t *testing.T) {
	s := &Summary{Program: "p", Outcomes: OutcomeStats{Masked: 1}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, absent := range []string{
		"resumed_experiments", "wal_notes", "wal_degraded",
		"poisoned", "panic_retries", "baseline", "targets", "bench", "variant",
		"elided_experiments", "elided_sim_instrs",
		"batched_experiments", "batch_replicas_avg",
		"remote_experiments", "shards_merged",
		"hedged_dispatches", "releases",
		"hardened_target", "residual_sdc", "predicted_residual",
		"detector_coverage", "detector_triggers", "protection_overhead",
		"hardened_asm", "shared_hits", "shared_misses",
		"base_wall_ns", "base_clean_instrs", "base_faulty_instrs", "base_batched_experiments",
	} {
		if strings.Contains(text, `"`+absent+`"`) {
			t.Errorf("zero-value summary serializes %q: %s", absent, text)
		}
	}
	for _, present := range []string{"program", "epsilon", "outcomes", "ff_experiments"} {
		if !strings.Contains(text, `"`+present+`"`) {
			t.Errorf("summary missing always-on key %q: %s", present, text)
		}
	}
}

// TestSummaryDegradedFieldsSurviveIndirection: a full summary pushed
// through generic JSON (map[string]any, as proxies and the service's job
// store do) and re-marshalled still decodes to an equal summary — no
// field relies on Go-only types.
func TestSummaryDegradedFieldsSurviveIndirection(t *testing.T) {
	want := fullSummary()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(data2, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("generic indirection changed the summary:\nwant %+v\ngot  %+v", want, &got)
	}
}
