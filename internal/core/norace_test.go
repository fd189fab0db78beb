//go:build !race

package core

// pipelineWorkers are the worker counts TestPipelineMatchesSequential
// sweeps: without the race detector, one to four.
var pipelineWorkers = []int{1, 2, 3, 4}
