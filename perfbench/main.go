// Command perfbench is the Salus benchmark: it deploys the stack
// salus-server runs in cluster mode (fleet.New, remote.ServeFleet on
// loopback TCP, one remote.ClusterSession as the data owner), drives one
// named workload against it, checks every opened output against ground
// truth computed at set-up, and prints its metrics.
//
// Usage (run.sh builds the binary and passes these through):
//
//	perfbench --workload jobs-open|batch-bulk|attest-cold --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// and the run's spans are written to DIR. README.md in this directory
// explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	// correct is false when any opened output differed from ground truth,
	// the workload's own accounting did not add up, or a traced run's
	// consistency check failed.
	correct bool
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// require marks the run incorrect, and says why, when a consistency check
// fails.
func (r *report) require(ok bool, format string, args ...any) {
	if !ok {
		fmt.Printf("check failed: "+format+"\n", args...)
		r.correct = false
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds a whole run; a run that outlives it has hung and
// exits without a result.
const runDeadline = 170 * time.Second

var workloads = map[string]func(options) (*report, error){
	"jobs-open":   runJobsOpen,
	"batch-bulk":  runBatchBulk,
	"attest-cold": runAttestCold,
}

func main() {
	workload := flag.String("workload", "", "jobs-open, batch-bulk or attest-cold")
	seed := flag.Int64("seed", 1, "seed of the input pools and arrival schedule")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics and writes spans")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the traced run's spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// One client process against an in-process gateway: never ask for
	// more parallelism than the machine has.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, runDeadline)
		os.Exit(1)
	})
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))

	rep, err := run(options{seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir})
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct:   rep.correct,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}
