package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// steady runs the workload o.steady times, each in its own process with
// seeds o.seed, o.seed+1, ..., and prints each end-to-end metric's median,
// quartiles and quartile spread (as a share of the median) next to its
// bound in BENCHMARK.json — the figures the bounds are set from.
func steady(o options, out io.Writer) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for k := 0; k < o.steady; k++ {
		seed := o.seed + int64(k)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var res struct {
			Correct bool                   `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			return fmt.Errorf("run with seed %d: reading its result: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d reported wrong answers:\n%s", seed, stdout)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(out, "seed %d: %s\n", seed, bytes.TrimSpace(lastLine(stdout)))
	}
	fmt.Fprintf(out, "%-20s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(values[d.Name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(out, "%-20s %12.4f %12.4f %12.4f %8.4f %7.3f\n", d.Name, q1, med, q3, spread, bounds[d.Name])
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func readBounds(path string) (map[string]float64, error) {
	bf, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
