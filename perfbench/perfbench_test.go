package main

import (
	"math"
	"testing"
)

// tiny returns a workload cut down to seconds-long test runs.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	dir := t.TempDir()
	w, err := newWorkload(name, dir)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *corpusWorkload:
		w.drivers = map[string]bool{"tracedrv": true, "moufiltr": true, "fakemodem": true}
		if w.hard {
			w.drivers = map[string]bool{hardBudgetDriver: true}
		}
	case *serveWorkload:
		w.drivers = map[string]bool{"tracedrv": true, "moufiltr": true}
	case *assertSeqWorkload:
		w.programs = 4
	}
	return w
}

func tinyOptions(t *testing.T, name string, trace int) options {
	return options{workload: name, seed: 3, seconds: 0.2, trace: trace, outDir: t.TempDir(), plant: -1}
}

func checkMetrics(t *testing.T, what string, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v, not finite", what, d.Name, m.Value)
		}
	}
}

// A tiny traced pass of every workload reports every end-to-end metric
// (from its untraced phase) and every per-layer metric, each with its
// unit and a finite value, and every answer is right.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(tiny(t, name), tinyOptions(t, name, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end-to-end", endToEnd, res.Untraced)
			checkMetrics(t, "per-layer", perLayer, res.Metrics)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("correct=%v attempted=%d failed=%d mismatches=%v",
					res.Correct, res.Attempted, res.Failed, res.Mismatches)
			}
			if ok := res.Untraced["ok_ratio"].Value; ok != 1 {
				t.Errorf("ok_ratio = %v, want 1", ok)
			}
			if v := res.Untraced["setup_s"].Value; v <= 0 {
				t.Errorf("setup_s = %v, want > 0", v)
			}
		})
	}
}

// An untraced run prints exactly the end-to-end metrics.
func TestUntracedRunReportsEndToEnd(t *testing.T) {
	res, err := runWorkload(tiny(t, "assert-seq"), tinyOptions(t, "assert-seq", 0))
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "end-to-end", endToEnd, res.Metrics)
	if res.Untraced != nil {
		t.Error("an untraced run reported a traced phase")
	}
}

// The same seed generates the same inputs in the same order; another
// seed orders them differently.
func TestSameSeedSameInputs(t *testing.T) {
	const n = 40
	inputs := func(w workload, seed int64) []string {
		t.Helper()
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		defer w.teardown()
		var out []string
		for i := 0; i < n; i++ {
			name, src := w.input(i)
			out = append(out, name+"\x00"+src)
		}
		return out
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			a, b, c := inputs(w, 5), inputs(w, 5), inputs(w, 6)
			same := true
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed 5 generated different inputs at check %d", i)
				}
				same = same && a[i] == c[i]
			}
			if same {
				t.Errorf("seeds 5 and 6 generated the same %d inputs", n)
			}
		})
	}
}

// A planted wrong known answer is caught: ok_ratio drops below 1, the run
// is not correct, and the check is listed by name.
func TestPlantedWrongVerdictLowersOkRatio(t *testing.T) {
	for _, name := range []string{"table1", "assert-seq", "serve"} {
		t.Run(name, func(t *testing.T) {
			o := tinyOptions(t, name, 0)
			o.plant = 0
			w := tiny(t, name)
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if ok := res.Metrics["ok_ratio"].Value; ok >= 1 {
				t.Errorf("ok_ratio = %v with a planted wrong answer, want < 1", ok)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d with a planted wrong answer", res.Correct, res.Failed)
			}
			if len(res.Mismatches) == 0 || res.Mismatches[0].Check != 0 || res.Mismatches[0].Want != plantedAnswer {
				t.Errorf("mismatches = %+v, want check 0 listed", res.Mismatches)
			}
		})
	}
}

// A hard-budget phase in which no check spilled its frontier is wrong as
// a whole; one spilling check is enough.
func TestHardBudgetPhaseMustSpill(t *testing.T) {
	w := newCorpusWorkload(true, t.TempDir())
	outs := map[int]*outcome{0: {ok: true}, 1: {ok: true}}
	w.postCheck(outs)
	for i, o := range outs {
		if o.ok {
			t.Errorf("check %d is ok in a phase that never spilled", i)
		}
	}
	outs = map[int]*outcome{0: {ok: true}}
	w.spilledChecks = 1
	w.postCheck(outs)
	if !outs[0].ok {
		t.Errorf("check 0 failed in a phase that spilled: %s", outs[0].why)
	}
}

// The metric tables and the workload list match BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// Every prefix of a stratified pass holds each class, and each stratum
// within it, in proportion to its size.
func TestOrderKeepsStrataInProportion(t *testing.T) {
	classes := [][][]int{
		{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}},
		{{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}},
	}
	const n = 30
	o := newOrder(9, classes)
	where := map[int][2]int{}
	for c, class := range classes {
		for s, members := range class {
			for _, x := range members {
				where[x] = [2]int{c, s}
			}
		}
	}
	seen := map[int]bool{}
	counts := map[[2]int]int{}
	classCounts := map[int]int{}
	for i := 0; i < n; i++ {
		x := o.at(i)
		if seen[x] {
			t.Fatalf("input %d repeated within one pass", x)
		}
		seen[x] = true
		counts[where[x]]++
		classCounts[where[x][0]]++
		for c, class := range classes {
			size := 0
			for s, members := range class {
				size += len(members)
				want := float64(len(members)) * float64(i+1) / n
				if got := counts[[2]int{c, s}]; math.Abs(float64(got)-want) > 2 {
					t.Fatalf("after %d inputs stratum %d/%d has %d, want about %.1f", i+1, c, s, got, want)
				}
			}
			want := float64(size) * float64(i+1) / n
			if got := classCounts[c]; math.Abs(float64(got)-want) > 1.5 {
				t.Fatalf("after %d inputs class %d has %d, want about %.1f", i+1, c, got, want)
			}
		}
	}
}
