package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fastflip/internal/sens"
	"fastflip/internal/testprog"
	"fastflip/internal/trace"
)

// failingInjector fails every delegated section campaign at once.
type failingInjector struct{ err error }

func (f failingInjector) InjectSection(context.Context, SectionJob) (SectionResult, error) {
	return SectionResult{}, f.err
}

// sensFlags records, per section of the testprog pipeline, that its
// estimation started and that it finished. Each section's estimation
// writes only its own flags, and two may run at once.
type sensFlags struct{ started, finished [2]bool }

// joined reports whether every estimation that started also finished.
func (f *sensFlags) joined() bool {
	return f.started != [2]bool{} && f.started == f.finished
}

// slowSens is a sensitivity estimator that outlasts the campaign it runs
// beside and records that it started and finished. The plain writes to
// flags are read after AnalyzeContext returns, so the race detector flags
// any return path that does not join every estimation.
func slowSens(flags *sensFlags, before func()) func(*trace.Trace, *trace.Instance, sens.Config) (*sens.Amplification, sens.Stats) {
	return func(t *trace.Trace, inst *trace.Instance, cfg sens.Config) (*sens.Amplification, sens.Stats) {
		flags.started[inst.Sec] = true
		if before != nil {
			before()
		}
		time.Sleep(20 * time.Millisecond)
		flags.finished[inst.Sec] = true
		return sens.Analyze(t, inst, cfg)
	}
}

// TestSensitivityJoinedOnCancel: a cancelled analysis returns only after
// every sensitivity goroutine it started has finished.
func TestSensitivityJoinedOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flags sensFlags
	defer SetSensitivity(slowSens(&flags, cancel))()

	_, err := NewAnalyzer(DefaultConfig()).AnalyzeContext(ctx, testprog.Pipeline())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext = %v, want context.Canceled", err)
	}
	if !flags.joined() {
		t.Errorf("AnalyzeContext returned before its sensitivity goroutines finished: %+v", flags)
	}
}

// TestSensitivityJoinedOnInjectorError: a failing SectionInjector fails
// the analysis only after every sensitivity goroutine it started finished.
func TestSensitivityJoinedOnInjectorError(t *testing.T) {
	var flags sensFlags
	defer SetSensitivity(slowSens(&flags, nil))()
	cfg := DefaultConfig()
	boom := errors.New("injector down")
	cfg.SectionInjector = failingInjector{boom}

	_, err := NewAnalyzer(cfg).Analyze(testprog.Pipeline())
	if !errors.Is(err, boom) {
		t.Fatalf("Analyze = %v, want the injector's error", err)
	}
	if !flags.joined() {
		t.Errorf("Analyze returned before its sensitivity goroutines finished: %+v", flags)
	}
}

// TestSensitivityPanicReraised: a panic in the estimation is re-raised on
// the analysis goroutine, with the estimation's stack, on the success
// path and on the injector-error path alike.
func TestSensitivityPanicReraised(t *testing.T) {
	defer SetSensitivity(func(*trace.Trace, *trace.Instance, sens.Config) (*sens.Amplification, sens.Stats) {
		panic("sensitivity bug")
	})()
	for _, tc := range []struct {
		name string
		inj  SectionInjector
	}{
		{"local", nil},
		{"injector error", failingInjector{errors.New("injector down")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SectionInjector = tc.inj
			rec := func() (rec any) {
				defer func() { rec = recover() }()
				NewAnalyzer(cfg).Analyze(testprog.Pipeline())
				return nil
			}()
			if rec == nil {
				t.Fatal("the sensitivity panic did not reach the analysis goroutine")
			}
			msg := fmt.Sprint(rec)
			if !strings.Contains(msg, "sensitivity bug") || !strings.Contains(msg, "TestSensitivityPanicReraised") {
				t.Errorf("re-raised panic lacks the value or the estimation's stack: %q", msg)
			}
		})
	}
}
