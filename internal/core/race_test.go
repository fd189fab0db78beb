//go:build race

package core

// pipelineWorkers are the worker counts TestPipelineMatchesSequential
// sweeps. The race detector slows the sweep about twentyfold, so it runs
// one slot shared by both sections in flight and three uneven chunks on
// three slots.
var pipelineWorkers = []int{1, 3}
