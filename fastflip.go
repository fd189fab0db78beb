package fastflip

import (
	"fastflip/internal/bench"
	"fastflip/internal/chisel"
	"fastflip/internal/core"
	"fastflip/internal/knap"
	"fastflip/internal/lang"
	"fastflip/internal/metrics"
	"fastflip/internal/ostore"
	"fastflip/internal/prog"
	"fastflip/internal/sens"
	"fastflip/internal/spec"
	"fastflip/internal/store"
	"fastflip/internal/tables"
	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// Program construction. A Module is a set of named, position-independent
// functions; Link flattens it into executable code.
type (
	// Module is a collection of functions prior to linking.
	Module = prog.Program
	// Func is one named function.
	Func = prog.Function
	// FuncBuilder emits instructions and resolves labels.
	FuncBuilder = prog.B
	// Linked is an executable, flattened program.
	Linked = prog.Linked
	// StaticID identifies a static instruction stably across versions.
	StaticID = prog.StaticID
)

// NewModule returns an empty module.
func NewModule() *Module { return prog.New() }

// NewFunc starts building a function.
func NewFunc(name string) *FuncBuilder { return prog.NewFunc(name) }

// KernelBindings maps minilang buffer parameter names to memory addresses.
type KernelBindings = lang.Bindings

// CompileKernels compiles minilang source (see internal/lang) into ISA
// functions, one per kernel, ready to Add to a Module:
//
//	kernel sumsq(v: float[4], s: float[1]) {
//	    var acc: float = 0.0;
//	    for i = 0 to 4 { acc = acc + v[i] * v[i]; }
//	    s[0] = acc;
//	}
func CompileKernels(src string, binds KernelBindings) ([]*Func, error) {
	return lang.Compile(src, binds)
}

// Workload description: the analysis inputs of FastFlip §4.1.
type (
	// Program describes one analyzable program version: linked code,
	// memory initialization, section partition, and final outputs.
	Program = spec.Program
	// Section is one static program section.
	Section = spec.Section
	// InstanceIO declares one section instance's inputs/outputs/live set.
	InstanceIO = spec.InstanceIO
	// Buffer is a named contiguous memory range.
	Buffer = spec.Buffer
	// BufKind distinguishes float and integer buffers.
	BufKind = spec.BufKind
)

// Buffer kinds.
const (
	Float = spec.Float
	Int   = spec.Int
)

// Execution substrate.
type (
	// Machine is the architectural simulator state.
	Machine = vm.Machine
	// Trace is a recorded error-free execution with section instances.
	Trace = trace.Trace
)

// RecordTrace executes p cleanly and captures its trace.
func RecordTrace(p *Program) (*Trace, error) { return trace.Record(p) }

// Analysis pipeline.
type (
	// Config holds the analysis parameters (targets, ε, pruning, …).
	Config = core.Config
	// Analyzer runs FastFlip across program versions with reuse.
	Analyzer = core.Analyzer
	// Result is the analysis of one program version.
	Result = core.Result
	// TargetEval compares FastFlip against the baseline for one target.
	TargetEval = core.TargetEval
	// BadCounts attributes SDC-Bad sites to static instructions.
	BadCounts = core.BadCounts
	// Selection is a chosen set of instructions to protect.
	Selection = knap.Selection
	// HardenEval is the measured outcome of the protection loop
	// (Analyzer.Harden): the applied selection, the hardened program, and
	// its residual SDC against the predicted bound.
	HardenEval = core.HardenEval
	// Outcome classifies one injection experiment.
	Outcome = metrics.Outcome
	// Summary is the machine-readable digest of one analysis (the shape
	// fastflip -json and the ffserved API emit).
	Summary = core.Summary
	// Telemetry is the part of a Summary that describes how the run
	// executed; clear it (s.Telemetry = Telemetry{}) to compare outcomes.
	Telemetry = core.Telemetry
	// Progress is a live snapshot of a running Analyze campaign,
	// reported through Analyzer.Progress.
	Progress = core.Progress
	// SensConfig controls the local sensitivity analysis.
	SensConfig = sens.Config
	// PropagationSpec is the composed end-to-end SDC specification.
	PropagationSpec = chisel.Spec
	// Store persists per-section results across versions.
	Store = store.Store
	// SharedStore is the disk-backed, content-addressed outcome tier
	// shared across processes and tenants (attach with Store.WithTier and
	// SharedStore.AsTier).
	SharedStore = ostore.Store
	// SharedStoreOptions configure OpenSharedStore.
	SharedStoreOptions = ostore.Options
)

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewAnalyzer returns an analyzer with a fresh store.
func NewAnalyzer(cfg Config) *Analyzer { return core.NewAnalyzer(cfg) }

// NewStore returns an empty result store.
func NewStore() *Store { return store.New() }

// LoadStore reads a store previously written with Store.Save.
func LoadStore(path string) (*Store, error) { return store.Load(path) }

// OpenSharedStore opens (creating if necessary) the shared outcome tier
// in opts.Dir. Any number of processes may share one directory.
func OpenSharedStore(opts SharedStoreOptions) (*SharedStore, error) { return ostore.Open(opts) }

// The paper's benchmarks (Table 1) and evaluation harness.
type (
	// Variant selects a benchmark version: None, Small, or Large.
	Variant = bench.Variant
	// Suite holds a full evaluation run and renders the paper's tables.
	Suite = tables.Suite
	// EvalOptions configures RunEvaluation.
	EvalOptions = tables.Options
)

// Benchmark variants.
const (
	None  = bench.None
	Small = bench.Small
	Large = bench.Large
)

// Benchmarks returns the registered benchmark names.
func Benchmarks() []string { return bench.Names() }

// BuildBenchmark constructs one benchmark version.
func BuildBenchmark(name string, v Variant) (*Program, error) { return bench.Build(name, v) }

// DefaultEvalOptions mirrors the paper's evaluation setup.
func DefaultEvalOptions() EvalOptions { return tables.DefaultOptions() }

// RunEvaluation analyzes the requested benchmarks in all three versions
// and returns a Suite that renders Tables 1-4, §6.4, Figure 1, and Eq. 2.
func RunEvaluation(opts EvalOptions) (*Suite, error) { return tables.RunSuite(opts) }
