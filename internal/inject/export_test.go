package inject

import (
	"fastflip/internal/metrics"
	"fastflip/internal/record"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// ReferenceVerdict exposes the whole-buffer reference classifier
// (reference_test.go) to external tests.
var ReferenceVerdict = referenceVerdict

// SameOutcome exposes the bit-exact outcome comparison to external tests.
var SameOutcome = sameOutcome

// SetVerdictCheck installs f to observe every section verdict (see
// verdictCheck) and returns a function that restores the previous one.
func SetVerdictCheck(f func(inst *trace.Instance, m *vm.Machine, got metrics.Outcome)) (restore func()) {
	old := verdictCheck
	verdictCheck = f
	return func() { verdictCheck = old }
}

// SetMaxPayload lowers the frame payload bound the WAL and the shard
// stream writers enforce to n bytes and returns a function that restores
// the previous framing.
func SetMaxPayload(n int) (restore func()) {
	old := appendFrame
	appendFrame = func(dst, payload []byte) ([]byte, error) {
		if len(payload) > n {
			return dst, record.ErrTooLarge
		}
		return old(dst, payload)
	}
	return func() { appendFrame = old }
}
