//go:build !race

package inject_test

import "math"

// coRunWindow is the number of dyn-order positions per instance that
// TestCoRunSectionsMatchPlain runs: without the race detector, all.
const coRunWindow = math.MaxInt
