package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// setup builds the inputs from the seed, starts whatever the checks
	// talk to, and runs fixed warm-up checks.
	setup(seed int64) error
	// teardown stops what setup started, also after a failed setup.
	teardown()
	// population is the number of checks one pass over the inputs makes.
	population() int
	// check runs the i-th check of the seeded sequence; tr is nil when
	// the run is not traced.
	check(i int, tr *tracer) outcome
	// input names the i-th check's input and returns its source program.
	input(i int) (name, src string)
}

// outcome is one check's answer and whether it is the known one.
type outcome struct {
	job     string // names the input (field, program, arm) in reports
	verdict string
	want    string
	err     error
	why     string // set by the workload when the answer is wrong for a reason other than the verdict
	ok      bool
}

// judge settles ok from the verdict, the known answer and any error.
func (o outcome) judge() outcome {
	switch {
	case o.err != nil:
		o.ok, o.why = false, o.err.Error()
	case o.why != "":
		o.ok = false
	case o.verdict != o.want:
		o.ok, o.why = false, fmt.Sprintf("answered %s, known answer %s", o.verdict, o.want)
	default:
		o.ok = true
	}
	return o
}

// mismatch is a wrong answer, listed by input.
type mismatch struct {
	Check int    `json:"check"`
	Job   string `json:"job"`
	Got   string `json:"got"`
	Want  string `json:"want"`
	Why   string `json:"why"`
}

// plantedAnswer replaces the known answer of the check options.plant
// names, so tests can see the correctness gate catch a wrong verdict.
const plantedAnswer = "planted-wrong-answer"

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// phase is one timed (or full-pass) run of the checks.
type phase struct {
	wall       time.Duration
	latMS      []float64
	outs       map[int]*outcome
	allocBytes uint64
	peakLive   uint64
	gcCPU      float64 // CPU seconds spent in GC
	cpu        float64 // CPU seconds in total
	gcCycles   uint64
	tr         *tracer // merged spans and counts (traced phases only)
}

// hostReference times a fixed piece of work that involves none of the
// program: sorting a seeded slice of half a million integers, the median of
// five sorts. The host's speed can drift by tens of percent over minutes;
// this figure, taken before and after the timed phase of every run, helps
// tell that drift apart from a change in the program.
func hostReference() float64 {
	base := make([]int64, 1<<19)
	rng := rand.New(rand.NewSource(1))
	for i := range base {
		base[i] = rng.Int63()
	}
	xs := make([]int64, len(base))
	var ms []float64
	for k := 0; k < 5; k++ {
		copy(xs, base)
		t0 := time.Now()
		slices.Sort(xs)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return quantile(ms, 0.5)
}

// runtimeSample reads the cumulative runtime counters a phase reports.
func runtimeSample() (gcCPU, cpu float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// runPhase runs checks from one closed-loop client until the duration has
// passed (or, in a full pass, until every input was checked once). A check
// started before the deadline runs to completion. assert-seq also finishes
// the pass it is in: its small fixed population has a few checks that cost
// a thousand times the median, so a partial last pass would make a run's
// cost depend on where it stopped.
func runPhase(w workload, dur time.Duration, full, trace bool, plant int) *phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0, cyc0 := runtimeSample()

	start := time.Now()
	deadline := start.Add(dur)
	pop := w.population()
	_, whole := w.(*assertSeqWorkload)
	p := &phase{outs: map[int]*outcome{}}
	if trace {
		p.tr = newTracer(start)
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 0; ; i++ {
		if full && i >= pop {
			break
		}
		if !full && !time.Now().Before(deadline) && (!whole || i%pop == 0) {
			break
		}
		t0 := time.Now()
		p.tr.begin("check", int64(i))
		o := w.check(i, p.tr)
		p.tr.end()
		p.latMS = append(p.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if i == plant {
			o.want = plantedAnswer
			o = o.judge()
		}
		p.outs[i] = &o
		metrics.Read(live)
		p.peakLive = max(p.peakLive, live[0].Value.Uint64())
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	gc1, cpu1, cyc1 := runtimeSample()
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCPU, p.cpu, p.gcCycles = gc1-gc0, cpu1-cpu0, cyc1-cyc0
	// One more live-heap sample after a forced collection: where the heap
	// only grows (serve's caches and summary store), the last check's
	// sample is as old as the last collection, which falls at a different
	// point in every run.
	runtime.GC()
	metrics.Read(live)
	p.peakLive = max(p.peakLive, live[0].Value.Uint64())
	switch w := w.(type) {
	case *serveWorkload:
		w.postCheck(p.outs)
	case *corpusWorkload:
		w.postCheck(p.outs)
	}
	return p
}

// okCount counts the checks whose answer was right.
func (p *phase) okCount() int {
	n := 0
	for _, o := range p.outs {
		if o.ok {
			n++
		}
	}
	return n
}

func (p *phase) mismatches() []mismatch {
	var out []mismatch
	for i, o := range p.outs {
		if !o.ok {
			out = append(out, mismatch{Check: i, Job: o.job, Got: o.verdict, Want: o.want, Why: o.why})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Check < out[b].Check })
	return out
}

// endToEndMetrics computes the user-visible metrics of an untraced phase.
func (p *phase) endToEndMetrics(setupS float64) map[string]metricValue {
	n := float64(len(p.latMS))
	vals := map[string]float64{
		"setup_s":            setupS,
		"checks_per_s":       n / p.wall.Seconds(),
		"latency_p50_ms":     quantile(p.latMS, 0.50),
		"latency_p95_ms":     quantile(p.latMS, 0.95),
		"alloc_mb_per_check": float64(p.allocBytes) / 1e6 / n,
		"peak_heap_mb":       float64(p.peakLive) / 1e6,
		"ok_ratio":           float64(p.okCount()) / n,
	}
	return withUnits(endToEnd, vals)
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// runWorkload sets the workload up setupRepeats times, runs the untraced
// timed phase, and on traced runs sets up once more and runs the traced
// phase over the same check sequence.
func runWorkload(w workload, o options) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	hostRef := hostReference()
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		runtime.GC()
		setups = append(setups, time.Since(t0).Seconds())
	}
	_, setupS, _ := quartiles(setups)

	un := runPhase(w, dur, o.full, false, o.plant)
	hostRefAfter := hostReference()
	if len(un.latMS) == 0 {
		w.teardown()
		return nil, fmt.Errorf("%s: the timed phase completed no check", w.name())
	}
	res := &result{Env: environment(o, w)}
	res.Env["setup_runs_s"] = setups
	res.Env["host_ref_ms"] = []float64{hostRef, hostRefAfter}
	res.Mismatches = un.mismatches()
	res.Attempted = len(un.latMS)
	res.Failed = res.Attempted - un.okCount()
	e2e := un.endToEndMetrics(setupS)
	if o.full {
		res.Extra = fullPassReport(w, un)
	}
	if o.trace == 0 {
		w.teardown()
		res.Metrics = e2e
		res.Correct = res.Failed == 0
		return res, nil
	}

	// The traced phase replays the same sequence on freshly set-up state
	// (serve's caches start empty again).
	w.teardown()
	if err := w.setup(o.seed); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s set-up for the traced phase: %w", w.name(), err)
	}
	runtime.GC()
	var coord0 map[string]float64
	if sw, ok := w.(*serveWorkload); ok {
		var err error
		if coord0, err = sw.coordCounters(); err != nil {
			w.teardown()
			return nil, err
		}
	}
	tp := runPhase(w, dur, o.full, true, o.plant)
	layers, err := layerMetrics(w, un, tp, coord0)
	w.teardown()
	if err != nil {
		return nil, err
	}
	res.Untraced = e2e
	res.Mismatches = append(res.Mismatches, tp.mismatches()...)
	res.Attempted += len(tp.latMS)
	res.Failed += len(tp.latMS) - tp.okCount()
	differ := verdictDiffs(un, tp)
	if res.Extra == nil {
		res.Extra = map[string]any{}
	}
	res.Extra["untraced_checks"] = len(un.latMS)
	res.Extra["traced_checks"] = len(tp.latMS)
	res.Extra["untraced_and_traced_wall_s"] = []float64{un.wall.Seconds(), tp.wall.Seconds()}
	res.Extra["tracing_overhead_pct"] = layers["tracing.overhead_pct"]
	res.Extra["verdicts_match_untraced"] = len(differ) == 0
	res.Extra["verdict_diffs"] = differ
	res.Extra["span_log"] = spanLogPath(o.outDir, w.name(), o.seed)
	res.Metrics = withUnits(perLayer, layers)
	res.Correct = res.Failed == 0 && len(differ) == 0
	if err := tp.tr.writeSpans(spanLogPath(o.outDir, w.name(), o.seed)); err != nil {
		return nil, err
	}
	return res, nil
}

func spanLogPath(outDir, workload string, seed int64) string {
	return filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// verdictDiffs lists the checks both phases ran whose verdicts differ.
func verdictDiffs(a, b *phase) []mismatch {
	var out []mismatch
	for i, oa := range a.outs {
		if ob, ok := b.outs[i]; ok && ob.verdict != oa.verdict {
			out = append(out, mismatch{Check: i, Job: oa.job, Got: ob.verdict, Want: oa.verdict,
				Why: "traced verdict differs from the untraced run's"})
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].Check < out[y].Check })
	return out
}

// layerMetrics turns the traced phase's spans and counts into the
// per-layer metrics, adds the probes, the runtime counters of the
// untraced phase, the service tier (serve), and the tracing overhead.
func layerMetrics(w workload, un, tp *phase, coord0 map[string]float64) (map[string]float64, error) {
	tr := tp.tr
	checks := float64(len(tp.latMS))
	self, calls := tr.layerTimes()
	perCheckMS := func(layer string) float64 { return float64(self[layer].Nanoseconds()) / 1e6 / checks }
	mean := func(name string) float64 {
		if tr.calls[name] == 0 {
			return 0
		}
		return tr.sums[name] / float64(tr.calls[name])
	}
	ratio := func(num, den string) float64 {
		if tr.sums[den] == 0 {
			return 0
		}
		return tr.sums[num] / tr.sums[den]
	}
	v := map[string]float64{
		"parser.self_ms":            perCheckMS("parser"),
		"parser.calls":              float64(calls["parser"]),
		"kiss.self_ms":              perCheckMS("kiss"),
		"kiss.out_stmts":            mean("kiss.out_stmts"),
		"cbseq.self_ms":             perCheckMS("cbseq"),
		"cbseq.out_stmts":           mean("cbseq.out_stmts"),
		"sem.compile_ms":            perCheckMS("sem.compile"),
		"seqcheck.self_ms":          perCheckMS("seqcheck"),
		"seqcheck.states":           mean("seqcheck.states"),
		"seqcheck.steps":            mean("seqcheck.steps"),
		"seqcheck.states_stepped":   mean("seqcheck.states_stepped"),
		"seqcheck.visited":          mean("seqcheck.visited"),
		"seqcheck.peak_frontier":    mean("seqcheck.peak_frontier"),
		"seqcheck.max_states_trips": mean("seqcheck.max_states_trips"),
		"sem.memo_hit_ratio":        ratio("memo.hits", "memo.lookups"),
		"sem.memo_steps_saved":      tr.sums["memo.steps_saved"] / max(1, float64(tr.calls["seqcheck.states"])),
		"sem.summary_hit_ratio":     ratio("summary.hits", "summary.lookups"),
		"sem.summary_steps_saved":   tr.sums["summary.steps_saved"] / max(1, float64(tr.calls["seqcheck.states"])),
		"frontier.spilled_mb":       mean("frontier.spilled_mb"),
		"frontier.spilled_frames":   mean("frontier.spilled_frames"),
		"frontier.spill_runs":       mean("frontier.spill_runs"),
		"frontier.merge_passes":     mean("frontier.merge_passes"),
		"frontier.peak_ram_kb":      tr.peaks["frontier.peak_ram_kb"],
		"visited.filter_kb":         mean("visited.filter_kb"),
		"visited.occupancy":         mean("visited.occupancy"),
		"trace.self_ms":             perCheckMS("trace"),
		"trace.calls":               float64(calls["trace"]),
		"concheck.self_ms":          perCheckMS("concheck"),
		"concheck.states":           mean("concheck.states"),
		"runtime.gc_cycles":         float64(un.gcCycles),
	}
	if s := self["parser"].Seconds(); s > 0 {
		v["parser.kb_per_s"] = tr.sums["parser.bytes"] / 1e3 / s
	}
	if un.cpu > 0 {
		v["runtime.gc_cpu_fraction"] = un.gcCPU / un.cpu
	}
	unRate := float64(len(un.latMS)) / un.wall.Seconds()
	tpRate := checks / tp.wall.Seconds()
	v["tracing.overhead_pct"] = (unRate/tpRate - 1) * 100

	var frontierBudget int64
	spillDir := ""
	if cw, ok := w.(*corpusWorkload); ok && cw.hard {
		// The checks' frontier share of the 1 MiB budget is 512 KiB; the
		// probe's few thousand states fit in that, so it gets a budget
		// small enough to exercise the spill path the checks take.
		frontierBudget = 64 << 10
		spillDir = cw.spillDir
	}
	progs := tr.programs
	sw, serve := w.(*serveWorkload)
	if serve {
		var err error
		if progs, err = sw.probePrograms(maxProbePrograms); err != nil {
			return nil, err
		}
	}
	for k, x := range probeLayers(progs, frontierBudget, spillDir) {
		v[k] = x
	}
	if serve {
		// The front end and the search ran inside the backends, which
		// report each computed job's phase times.
		v["parser.self_ms"] = tr.sums["backend.parse_ns"] / 1e6 / checks
		v["kiss.self_ms"] = tr.sums["backend.transform_ns"] / 1e6 / checks
		v["seqcheck.self_ms"] = tr.sums["backend.check_ns"] / 1e6 / checks
		for k, x := range sw.serviceLayers() {
			v[k] = x
		}
		coord1, err := sw.coordCounters()
		if err != nil {
			return nil, err
		}
		for k, x := range coord1 {
			v[k] = x - coord0[k]
		}
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not finite (%v)", k, x)
		}
	}
	return v, nil
}
