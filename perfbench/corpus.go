package main

import (
	"fmt"
	"os"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/eval"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table 1 verdict names, as eval.FieldVerdict prints them.
var (
	verdictRace    = eval.Race.String()
	verdictNoRace  = eval.NoRace.String()
	verdictTimeout = eval.Timeout.String()
)

// hardBudgetMaxStates is the hard-budget workload's state ceiling: ten
// times a 2000-state base, as the memory-budget study's compact arm runs
// ten times its exact arm's budget. At this ceiling a check takes about
// half a second on a 2-CPU host, so a run of a few seconds covers dozens
// of checks.
const hardBudgetMaxStates = 20000

// hardBudgetDriver is the driver whose FieldHard fields the hard-budget
// workload checks. At hardBudgetMaxStates only fdc's frontiers outgrow the
// budget and spill (the other drivers' hard fields need twice the ceiling,
// and seconds per check, before they do). Its 20 fields cost about the
// same, so every run of a few passes measures the same work.
const hardBudgetDriver = "fdc"

// hardBudgetMB is the search memory budget of the hard-budget workload
// (the memory-budget study's 1 MiB): half for the spilling frontier, half
// for the compact visited filter.
const hardBudgetMB = 1

// field is one Table 1 field check: its harness program and known answer.
type field struct {
	driver string
	spec   drivers.FieldSpec
	src    string
	want   string
}

// corpusWorkload checks Table 1 fields in process, one at a time: every
// field under the default Config (table1), or fdc's budget-bound FieldHard
// fields under the memory-budget configuration (hard-budget).
type corpusWorkload struct {
	hard     bool
	drivers  map[string]bool // corpus subset (nil: all drivers)
	spillDir string

	fields []field
	ord    *order
	// spilledChecks counts the checks of the current phase whose frontier
	// spilled (hard-budget).
	spilledChecks int
}

func newCorpusWorkload(hard bool, spillDir string) *corpusWorkload {
	return &corpusWorkload{hard: hard, spillDir: spillDir}
}

func (w *corpusWorkload) name() string {
	if w.hard {
		return "hard-budget"
	}
	return "table1"
}

func (w *corpusWorkload) population() int { return len(w.fields) }

// knownAnswer is the paper-calibrated verdict of a field: the planted
// pattern decides it (eval.CompareTable1 checks the same counts per driver).
func knownAnswer(p drivers.FieldPattern) string {
	switch {
	case p.RacesPermissive():
		return verdictRace
	case p.TimesOut():
		return verdictTimeout
	}
	return verdictNoRace
}

// loadFields generates the driver models and the harness program of every
// field keep accepts, in corpus order. For the seeded order it groups the
// fields into two cost classes, ordinary and budget-bound, and within a
// class into strata by driver and pattern: fields of one stratum cost
// about the same.
func loadFields(keep func(driver string, f drivers.FieldSpec) bool) ([]field, [][][]int) {
	var fields []field
	var ordinary, bound [][]int
	for _, spec := range drivers.Specs() {
		model := drivers.Generate(spec)
		byPattern := map[drivers.FieldPattern][]int{}
		var patterns []drivers.FieldPattern
		for _, f := range spec.Fields {
			if !keep(spec.Name, f) {
				continue
			}
			if byPattern[f.Pattern] == nil {
				patterns = append(patterns, f.Pattern)
			}
			byPattern[f.Pattern] = append(byPattern[f.Pattern], len(fields))
			fields = append(fields, field{
				driver: spec.Name,
				spec:   f,
				src:    model.HarnessProgram(f.Name, false),
				want:   knownAnswer(f.Pattern),
			})
		}
		for _, p := range patterns {
			if p.TimesOut() {
				bound = append(bound, byPattern[p])
			} else {
				ordinary = append(ordinary, byPattern[p])
			}
		}
	}
	var classes [][][]int
	for _, c := range [][][]int{ordinary, bound} {
		if len(c) > 0 {
			classes = append(classes, c)
		}
	}
	return fields, classes
}

// warmFields picks the first field of each pattern in corpus order: the
// same warm-up for every seed, so set-up time does not depend on it.
func warmFields(fields []field) []int {
	var out []int
	seen := map[drivers.FieldPattern]bool{}
	for i, f := range fields {
		if !seen[f.spec.Pattern] {
			seen[f.spec.Pattern] = true
			out = append(out, i)
		}
	}
	return out
}

// setup generates the driver models and harness programs, lays out the
// seeded stratified order, and runs the warm-up checks.
func (w *corpusWorkload) setup(seed int64) error {
	keep := func(driver string, f drivers.FieldSpec) bool {
		if w.drivers != nil {
			return w.drivers[driver] && (!w.hard || f.Pattern.TimesOut())
		}
		return !w.hard || driver == hardBudgetDriver && f.Pattern.TimesOut()
	}
	var classes [][][]int
	w.fields, classes = loadFields(keep)
	if len(w.fields) == 0 {
		return fmt.Errorf("%s: the corpus selection has no fields", w.name())
	}
	if w.hard {
		if err := os.MkdirAll(w.spillDir, 0o755); err != nil {
			return err
		}
	}
	w.ord = newOrder(seed, classes)

	for _, i := range warmFields(w.fields) {
		if o := w.checkField(&w.fields[i], -1, nil); o.err != nil {
			return fmt.Errorf("warm-up %s: %w", o.job, o.err)
		}
	}
	return nil
}

func (w *corpusWorkload) teardown() {}

// fieldConfig is the Table 1 race check of a field (Section 6: ts size 0)
// under a state budget.
func fieldConfig(f *field, maxStates int) *kiss.Config {
	return &kiss.Config{
		MaxTS:      0,
		RaceTarget: &kiss.RaceTarget{Record: "DEVICE_EXTENSION", Field: f.spec.Name},
		MaxStates:  maxStates,
	}
}

// config is the per-field check configuration: the Table 1 setting, or
// the memory-budget study's compact arm (BFS, compact visited set, 1 MiB
// budget, raised state ceiling).
func (w *corpusWorkload) config(f *field) *kiss.Config {
	cfg := fieldConfig(f, eval.DefaultMaxStates)
	if w.hard {
		cfg.MaxStates = hardBudgetMaxStates
		cfg.BFS = true
		cfg.VisitedMode = kiss.VisitedCompact
		cfg.MemBudgetMB = hardBudgetMB
		cfg.SpillDir = w.spillDir
	}
	return cfg
}

func (w *corpusWorkload) check(i int, tr *tracer) outcome {
	return w.checkField(&w.fields[w.ord.at(i)], int64(i), tr)
}

func (w *corpusWorkload) input(i int) (string, string) {
	f := &w.fields[w.ord.at(i)]
	return f.driver + "." + f.spec.Name, f.src
}

// postCheck fails a hard-budget phase in which no check spilled its
// frontier: the workload exists to measure the spill path. Four of fdc's
// 20 fields stay within the frontier's share of the budget, so the rule
// holds per phase, not per check.
func (w *corpusWorkload) postCheck(outs map[int]*outcome) {
	if w.hard && w.spilledChecks == 0 {
		for _, o := range outs {
			o.ok, o.why = false, "no check of the phase spilled its frontier"
		}
	}
	w.spilledChecks = 0
}

// checkField runs one field from source to verdict. Untraced it is what a
// user runs: kiss.Parse then Config.Check. Traced, the same pipeline is
// driven layer by layer so each layer gets its own span.
func (w *corpusWorkload) checkField(f *field, id int64, tr *tracer) outcome {
	o := outcome{job: f.driver + "." + f.spec.Name, want: f.want}
	cfg := w.config(f)
	var res *kiss.Result
	if tr == nil {
		prog, err := kiss.Parse(f.src)
		if err == nil {
			res, err = cfg.Check(prog)
		}
		o.err = err
	} else {
		res, o.err = checkRaceTraced(tr, id, f.src, cfg)
	}
	if o.err != nil {
		return o.judge()
	}
	o.verdict = fieldVerdict(res)
	if w.hard {
		m := res.Stats.Memory
		if m == nil || m.VisitedMode != kiss.VisitedCompact {
			o.why = "the compact visited set did not engage"
		} else if m.SpilledFrames > 0 && id >= 0 {
			w.spilledChecks++
		}
	}
	return o.judge()
}

// checkRaceTraced is the traced race-check pipeline: parse, the Figure 5
// translation, compile, the sequential check, and trace reconstruction,
// each in its own span. Config.Check on the translated program skips the
// translation and compiles again itself, so the sem.compile span is an
// extra call the untraced run does not make; its program feeds the probes.
func checkRaceTraced(tr *tracer, id int64, src string, cfg *kiss.Config) (*kiss.Result, error) {
	prog, err := traced(tr, "parser", id, func() (*kiss.Program, error) { return kiss.Parse(src) })
	if err != nil {
		return nil, err
	}
	tr.add("parser.bytes", float64(len(src)))
	seq, err := traced(tr, "kiss", id, func() (*kiss.Program, error) { return cfg.TransformRace(prog, *cfg.RaceTarget) })
	if err != nil {
		return nil, err
	}
	tr.add("kiss.out_stmts", float64(kiss.MeasureTransform(prog, seq).OutputStmts))
	compiled, err := traced(tr, "sem.compile", id, func() (*sem.Compiled, error) { return sem.Compile(seq.AST()) })
	if err != nil {
		return nil, err
	}
	tr.keepProgram(compiled)
	res, err := traced(tr, "seqcheck", id, func() (*kiss.Result, error) { return cfg.Check(seq) })
	if err != nil {
		return nil, err
	}
	tr.searchStats("seqcheck", res)
	reconstruct(tr, id, res)
	return res, nil
}

// reconstruct maps an Error result's sequential trace back to a concurrent
// one inside a trace span, as Config.Check does internally for KISS.
func reconstruct(tr *tracer, id int64, res *kiss.Result) {
	if res.Verdict != kiss.Error || len(res.SeqEvents) == 0 {
		return
	}
	_, _ = traced(tr, "trace", id, func() (*trace.Trace, error) { return trace.Reconstruct(res.SeqEvents), nil })
}

// fieldVerdict names a race check's result as Table 1 counts it.
func fieldVerdict(res *kiss.Result) string {
	switch {
	case res.Verdict == kiss.Error:
		return verdictRace
	case res.Verdict == kiss.Safe:
		return verdictNoRace
	case res.Stats.Reason == kiss.ReasonStates:
		return verdictTimeout
	}
	return "resource-bound(" + stats.BoundName(res.Stats.Reason) + ")"
}

// fullPassReport tallies the verdicts of a --full pass. On table1 the pass
// covers the whole corpus, so it also rebuilds the per-driver rows and
// compares them with the paper's Table 1 (eval.CompareTable1).
func fullPassReport(w workload, p *phase) map[string]any {
	tally := map[string]int{}
	for _, o := range p.outs {
		tally[o.verdict]++
	}
	rep := map[string]any{"tally": tally}
	cw, ok := w.(*corpusWorkload)
	if !ok || cw.hard {
		return rep
	}
	rows := map[string]*eval.DriverResult{}
	var rowsInOrder []*eval.DriverResult
	for _, spec := range drivers.Specs() {
		if cw.drivers != nil && !cw.drivers[spec.Name] {
			continue
		}
		dr := &eval.DriverResult{Spec: spec}
		rows[spec.Name] = dr
		rowsInOrder = append(rowsInOrder, dr)
	}
	for i, o := range p.outs {
		f := &cw.fields[cw.ord.at(i)]
		dr := rows[f.driver]
		dr.Fields = append(dr.Fields, eval.FieldResult{Driver: f.driver, Field: f.spec.Name, Pattern: f.spec.Pattern})
		switch o.verdict {
		case verdictRace:
			dr.Races++
		case verdictNoRace:
			dr.NoRace++
		case verdictTimeout:
			dr.Timeouts++
		}
	}
	diffs := eval.CompareTable1(rowsInOrder)
	rep["table1_matches_paper"] = len(diffs) == 0
	rep["table1_diffs"] = diffs
	return rep
}
