//go:build race

package inject_test

// coRunWindow is the number of dyn-order positions per instance that
// TestCoRunSectionsMatchPlain runs. The race detector slows a co-run
// experiment, which runs to the program's end, about fifteenfold.
const coRunWindow = 128
