// Command perfbench is FastFlip's benchmark. It runs one workload through
// the entry points users call (core.Analyzer, or the ffserved HTTP API),
// checks every operation's outcome against golden digests, and prints
// every metric by name and unit; the last line of standard output is one
// JSON object. With -trace 1 it instead times the calls into each layer
// and prints the per-layer metrics.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload initial --seed 1 --seconds 20 --trace 0
//
// Workloads: initial, incremental, service. See NOTES.md for what each
// stresses and how the metrics are defined.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// goldenPath is the golden outcome file, relative to the repository root.
const goldenPath = "perfbench/golden.json"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "initial, incremental or service")
	seed := flag.Int64("seed", 1, "seed of the operation order and the service job mix")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 times every layer call and reports per-layer metrics")
	writeGolden := flag.Bool("write-golden", false, "recompute the golden outcomes through core and write them to "+goldenPath)
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and the shared tier")
	flag.Parse()

	if *writeGolden {
		if err := regenerateGolden(goldenPath); err != nil {
			logf("perfbench: %v", err)
			os.Exit(1)
		}
		return
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	logf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d inject_workers=%d",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), injectWorkers)

	b := &benchRun{
		golden: g,
		rng:    rand.New(rand.NewSource(*seed)),
		dur:    time.Duration(*seconds) * time.Second,
		outDir: *outDir,
	}
	if *traced == 1 {
		b.rec = newRecorder()
	}
	var res result
	switch *workload {
	case "initial", "incremental":
		res, err = b.runCore(*workload)
	case "service":
		res, err = b.runService()
	default:
		err = fmt.Errorf("unknown workload %q (want initial, incremental or service)", *workload)
	}
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	if b.rec != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := b.rec.WriteFile(path); err != nil {
			logf("perfbench: %v", err)
			os.Exit(1)
		}
		logf("perfbench: spans written to %s", path)
	}
	printResult(res)
}

// benchRun carries one invocation's settings.
type benchRun struct {
	golden *Golden
	rng    *rand.Rand
	dur    time.Duration
	outDir string
	rec    *Recorder // nil unless traced
}

func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-26s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, _ := json.Marshal(res) // maps of plain values always encode
	fmt.Println(string(line))
}

// gcSample is a runtime.MemStats reading.
type gcSample struct {
	gcs   uint32
	pause uint64
	alloc uint64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{gcs: ms.NumGC, pause: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// runCore runs the initial or incremental workload. Set-up (program
// builds, and for incremental the warm stores) is timed on its own; then
// whole passes over the fixed operation list run, each in a fresh seeded
// order, until the measuring time is spent and at least
// minPercentileSamples operations have completed.
func (b *benchRun) runCore(workload string) (result, error) {
	build, reps := initialSetup, 5
	if workload == "incremental" {
		// Warming five stores analyzes all five originals, several seconds
		// of work: one timed repetition is already long.
		build, reps = incrementalOps, 1
	}
	var ops []*coreOp
	var setups []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if ops, err = build(); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if b.rec != nil {
		return b.traceCore(ops)
	}
	res := result{Metrics: map[string]metric{}}
	var passes []pass
	var lat []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < b.dur || len(lat) < minPercentileSamples {
		passes = append(passes, runPass(ops, b.rng.Perm(len(ops)), runCoreOp, b.golden, &lat, &res.Failed))
	}
	res.Attempted = len(lat)
	for _, p := range passes[1:] {
		if p.Counters != passes[0].Counters {
			res.Failed++
			logf("FAIL pass counters %+v differ from the first pass %+v", p.Counters, passes[0].Counters)
		}
	}
	var walls, cpus []float64
	for _, p := range passes {
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
	}
	wall := listSeconds(passes, func(p pass) []float64 { return p.OpWall })
	cpu := listSeconds(passes, func(p pass) []float64 { return p.OpCPU })
	if err := endToEnd(res.Metrics, median(setups), wall, cpu, lat, passes[0].Counters); err != nil {
		return result{}, err
	}
	logf("perfbench: %d passes of %d operations; pass seconds %.3f, CPU seconds %.3f", len(passes), len(ops), walls, cpus)
	res.Correct = res.Failed == 0
	return res, nil
}

// initialSetup builds the five originals and warms the process with one
// cold analysis of the two cheapest, so lazy runtime set-up is not timed
// in the first operation.
func initialSetup() ([]*coreOp, error) {
	ops, err := initialOps()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		if op.Bench == "bscholes" || op.Bench == "sha2" {
			if _, _, err := runCoreOp(op); err != nil {
				return nil, err
			}
		}
	}
	return ops, nil
}

// endToEnd fills the end-to-end metrics shared by every workload.
func endToEnd(m map[string]metric, setup, wall, cpu float64, lat []float64, c Counters) error {
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return err
	}
	m["setup_s"] = metric{setup, "s"}
	m["wall_s"] = metric{wall, "s"}
	m["cpu_s"] = metric{cpu, "s"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MiB"}
	m["sim_instrs"] = metric{float64(c.SimInstrs), "instrs"}
	m["executed_instrs"] = metric{float64(c.Executed()), "instrs"}
	m["experiments"] = metric{float64(c.Experiments), "count"}
	m["job_p50_s"] = metric{p50, "s"}
	m["job_p90_s"] = metric{p90, "s"}
	logf("perfbench: job percentiles over %d samples", len(lat))
	return nil
}
