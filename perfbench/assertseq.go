package main

import (
	"fmt"

	kiss "repro"
	"repro/internal/drivers"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// assertRandConfig shapes the random programs: one global keeps the CB
// translation's guessed snapshots small, so a pass over the population
// takes a few seconds on a 2-CPU host and no check reaches its state
// budget, while two aux functions, nested branching and two forks still
// give every checker real interleavings to find.
var assertRandConfig = randprog.Config{Globals: 1, Funcs: 2, MaxStmts: 4, MaxAsyncs: 2, Depth: 2}

// assertPrograms is the size of the random-program population. The
// population is the same for every seed (randprog seeds 1..assertPrograms)
// and the seed orders it: a few programs cost a thousand times the median
// under CB, so a seed-drawn population would make each run measure a
// different mix.
const assertPrograms = 64

// assertMaxStates is the per-check state budget (the sequentialization
// study's).
const assertMaxStates = 300000

// Checker arms, run in this order on each subject so the concheck verdict
// is known when the KISS and CB answers are judged.
const (
	armConcheck = iota
	armKISS
	armCB
	numArms
)

var armNames = [numArms]string{"concheck", "kiss", "cb2"}

// subject is one assertion-checking program: a scenario with recorded
// answers, or a random program whose answer comes from concheck.
type subject struct {
	name     string
	src      string
	scenario *drivers.Scenario // nil for random programs
}

// assertSeqWorkload checks each subject three ways — concheck's explicit
// interleaving search, KISS at ts bound 2, and CB with two context
// switches — in process, one check at a time.
type assertSeqWorkload struct {
	programs int
	subjects []subject
	ord      *order
	// truth holds concheck's verdict per subject for judging the other
	// arms; it is filled as the concheck arm runs.
	truth map[int]string
}

func newAssertSeqWorkload() *assertSeqWorkload {
	return &assertSeqWorkload{programs: assertPrograms}
}

func (w *assertSeqWorkload) name() string    { return "assert-seq" }
func (w *assertSeqWorkload) population() int { return len(w.subjects) * numArms }
func (w *assertSeqWorkload) teardown()       {}

func (w *assertSeqWorkload) setup(seed int64) error {
	w.subjects = w.subjects[:0]
	var scen, rnd []int
	for _, sc := range drivers.Scenarios() {
		scen = append(scen, len(w.subjects))
		w.subjects = append(w.subjects, subject{name: "scenario:" + sc.Name, src: sc.Source, scenario: sc})
	}
	for i := 1; i <= w.programs; i++ {
		rnd = append(rnd, len(w.subjects))
		w.subjects = append(w.subjects, subject{
			name: fmt.Sprintf("rand:%d", i),
			src:  randprog.Generate(int64(i), assertRandConfig),
		})
	}
	w.ord = newOrder(seed, [][][]int{{scen}, {rnd}})
	w.truth = map[int]string{}
	// Warm up on every scenario under every arm: fixed work, the same
	// for every seed.
	for _, s := range scen {
		for arm := 0; arm < numArms; arm++ {
			if o := w.checkSubject(s, arm, -1, nil); o.err != nil {
				return fmt.Errorf("warm-up %s: %w", o.job, o.err)
			}
		}
	}
	w.truth = map[int]string{}
	return nil
}

func (w *assertSeqWorkload) check(i int, tr *tracer) outcome {
	return w.checkSubject(w.ord.at(i/numArms), i%numArms, int64(i), tr).judge()
}

func (w *assertSeqWorkload) input(i int) (string, string) {
	s := &w.subjects[w.ord.at(i/numArms)]
	return s.name + "/" + armNames[i%numArms], s.src
}

// armConfig is the arm's check configuration.
func armConfig(arm int) *kiss.Config {
	switch arm {
	case armConcheck:
		return &kiss.Config{ContextBound: -1, MaxStates: assertMaxStates}
	case armKISS:
		return &kiss.Config{MaxTS: 2, MaxStates: assertMaxStates}
	}
	return &kiss.Config{Sequentialization: kiss.SeqCB, ContextSwitches: 2, MaxStates: assertMaxStates}
}

// checkSubject runs one arm on one subject from source to verdict and
// fills in the known answer: the scenario's recorded one, or for a random
// program the rule that no KISS or CB error may contradict concheck.
func (w *assertSeqWorkload) checkSubject(si, arm int, id int64, tr *tracer) outcome {
	s := &w.subjects[si]
	o := outcome{job: s.name + "/" + armNames[arm]}
	cfg := armConfig(arm)
	var res *kiss.Result
	if tr == nil {
		prog, err := kiss.Parse(s.src)
		if err == nil {
			if arm == armConcheck {
				res, err = cfg.Explore(prog)
			} else {
				res, err = cfg.Check(prog)
			}
		}
		o.err = err
	} else {
		res, o.err = checkAssertTraced(tr, id, s.src, arm, cfg)
	}
	if o.err != nil {
		return o
	}
	o.verdict = res.Verdict.String()
	errV, safeV := kiss.Error.String(), kiss.Safe.String()
	if sc := s.scenario; sc != nil {
		found := false
		switch arm {
		case armConcheck:
			found = sc.MinSwitches >= 0
		case armKISS:
			found = sc.KissFinds
		case armCB:
			found = sc.MinSwitches >= 0 && sc.MinSwitches <= 2
		}
		o.want = safeV
		if found {
			o.want = errV
		}
		return o
	}
	switch arm {
	case armConcheck:
		// The oracle must decide: a budget-bound concheck run would leave
		// the other arms unjudged.
		w.truth[si] = o.verdict
		if o.verdict != errV && o.verdict != safeV {
			o.why = "concheck did not decide within its state budget"
		}
		o.want = o.verdict
	default:
		o.want = o.verdict
		truth, ok := w.truth[si]
		switch {
		case !ok:
			o.why = "no concheck verdict to judge against"
		case o.verdict == errV && truth != errV:
			o.why = fmt.Sprintf("reports an error that concheck refutes (concheck: %s)", truth)
		case o.verdict != errV && o.verdict != safeV:
			o.why = "did not decide within its state budget"
		}
	}
	return o
}

// checkAssertTraced drives one arm layer by layer: parse, then concheck
// directly, or the KISS or CB translation, compile, the sequential check
// and (KISS errors) trace reconstruction.
func checkAssertTraced(tr *tracer, id int64, src string, arm int, cfg *kiss.Config) (*kiss.Result, error) {
	prog, err := traced(tr, "parser", id, func() (*kiss.Program, error) { return kiss.Parse(src) })
	if err != nil {
		return nil, err
	}
	tr.add("parser.bytes", float64(len(src)))
	if arm == armConcheck {
		res, err := traced(tr, "concheck", id, func() (*kiss.Result, error) { return cfg.Explore(prog) })
		if err == nil {
			tr.searchStats("concheck", res)
		}
		return res, err
	}
	layer := "kiss"
	if arm == armCB {
		layer = "cbseq"
	}
	seq, err := traced(tr, layer, id, func() (*kiss.Program, error) { return cfg.Transform(prog) })
	if err != nil {
		return nil, err
	}
	tr.add(layer+".out_stmts", float64(kiss.MeasureTransform(prog, seq).OutputStmts))
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
	if arm == armKISS {
		reconstruct(tr, id, res)
	}
	return res, nil
}
