package ostore

import "fastflip/internal/record"

// SetMaxPayload lowers the frame payload bound Put enforces to n bytes and
// returns a function that restores the previous framing.
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
