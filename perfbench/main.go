// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the checker's public API for a fixed time, checks every
// verdict against a known answer, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced run — as one JSON
// object on the last line of its output:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// --steady k runs the workload k times (seeds seed..seed+k-1, each in its
// own process) and prints each end-to-end metric's median, quartiles and
// quartile spread next to its bound in BENCHMARK.json. --full runs one
// whole pass over the workload's inputs instead of a timed phase; on
// table1 that is the complete Table 1 tally.
//
// README.md describes the workloads, the metrics and which layer should
// move which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	steady   int
	full     bool
	// outDir receives the span logs and spill runs (buildDir on the
	// command line); plant >= 0 plants a wrong known answer on that check.
	outDir string
	plant  int
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"table1", "hard-budget", "serve", "assert-seq"}

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func newWorkload(name, outDir string) (workload, error) {
	switch name {
	case "table1":
		return newCorpusWorkload(false, filepath.Join(outDir, "spill")), nil
	case "hard-budget":
		return newCorpusWorkload(true, filepath.Join(outDir, "spill")), nil
	case "serve":
		return newServeWorkload(), nil
	case "assert-seq":
		return newAssertSeqWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	o := options{outDir: buildDir, plant: -1}
	flag.StringVar(&o.workload, "workload", "", "workload to run: table1, hard-budget, serve or assert-seq")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: also run a traced phase and report the per-layer metrics")
	flag.IntVar(&o.steady, "steady", 0, "run the workload this many times with consecutive seeds and print each end-to-end metric's spread against its bound")
	flag.BoolVar(&o.full, "full", false, "run one whole pass over the workload's inputs instead of a timed phase")
	flag.Parse()
	if err := validate(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	var err error
	if o.steady > 0 {
		err = steady(o, os.Stdout)
	} else {
		err = runMain(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func validate(o options) error {
	if _, err := newWorkload(o.workload, o.outDir); err != nil {
		return err
	}
	if o.seconds <= 0 && !o.full {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.full && o.workload == "serve" {
		return fmt.Errorf("--full has no fixed pass on serve, whose stream repeats jobs")
	}
	// The benchmark builds the program from the checkout it runs in; a
	// directory holding only the benchmark has nothing to measure.
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of a checkout of the repository: %w", err)
	}
	return nil
}

func runMain(o options, out io.Writer) error {
	w, err := newWorkload(o.workload, o.outDir)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	return res.print(out)
}

// result is everything one invocation reports.
type result struct {
	Env        map[string]any
	Mismatches []mismatch
	Untraced   map[string]metricValue // set on traced runs: the untraced phase's end-to-end metrics
	Extra      map[string]any

	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

// mismatchLimit caps how many wrong answers are listed by name.
const mismatchLimit = 50

func (r *result) print(out io.Writer) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"env": r.Env}); err != nil {
		return err
	}
	if len(r.Mismatches) > 0 {
		list := r.Mismatches
		if len(list) > mismatchLimit {
			list = list[:mismatchLimit]
		}
		if err := enc.Encode(map[string]any{"mismatches": list, "count": len(r.Mismatches)}); err != nil {
			return err
		}
	}
	if r.Untraced != nil {
		if err := enc.Encode(map[string]any{"untraced_end_to_end": r.Untraced}); err != nil {
			return err
		}
	}
	if len(r.Extra) > 0 {
		if err := enc.Encode(r.Extra); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

func environment(o options, w workload) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"full":       o.full,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    1,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}
