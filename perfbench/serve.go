package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	kiss "repro"
	"repro/internal/coord"
	"repro/internal/drivers"
	"repro/internal/eval"
	"repro/internal/sem"
	"repro/internal/service"
)

// serveAltMaxStates is the state budget of resubmitted jobs: a different
// cache key for the same program, so the backend recomputes it on the warm
// summary-store path. Every field's verdict is the same as at
// eval.DefaultMaxStates (the budget-bound fields still trip it).
const serveAltMaxStates = 45000

// serveRecheck is how many distinct served jobs each run checks again in
// process after the timed phase, requiring the same verdict and search
// counters.
const serveRecheck = 12

// serveJob is one request of the stream: a Table 1 field under a budget.
type serveJob struct {
	field     int
	maxStates int
}

// served is what the client saw for one request.
type served struct {
	job       serveJob
	cached    bool
	latency   time.Duration
	serverDur time.Duration // the backend's reported phase total
	states    int
	steps     int
	sumHits   int64
	sumLookup int64
	rejected  bool
}

// serveWorkload sends a seeded, skewed stream of Table 1 field checks from
// one closed-loop client to kiss-coord in front of two kissd backends, all
// in this process on loopback. Each backend runs one scheduler worker. With
// two clients the backends, the coordinator and the clients saturated both
// CPUs of a 2-CPU host, cache hits queued behind computed jobs, and the
// median latency moved by half between runs of the same code.
type serveWorkload struct {
	drivers map[string]bool // corpus subset (nil: all drivers)

	fields []field
	ord    *order
	rng    *rand.Rand

	stream  []serveJob
	issued  []serveJob // distinct jobs in the order the stream first sent them
	isSent  map[serveJob]bool
	fresh   int // next position in ord for a new field
	records map[int]*served

	backends []*service.Server
	servers  []*http.Server
	co       *coord.Coordinator
	url      string
	cl       *service.Client
	seed     int64
}

func newServeWorkload() *serveWorkload {
	return &serveWorkload{}
}

func (w *serveWorkload) name() string    { return "serve" }
func (w *serveWorkload) population() int { return len(w.fields) }

func (w *serveWorkload) setup(seed int64) error {
	var classes [][][]int
	w.fields, classes = loadFields(func(driver string, _ drivers.FieldSpec) bool {
		return w.drivers == nil || w.drivers[driver]
	})
	if len(w.fields) == 0 {
		return errors.New("serve: the corpus selection has no fields")
	}
	w.seed = seed
	w.ord = newOrder(seed, classes)
	// The repeat draws take their own stream, so they never shift the
	// order of new fields.
	w.rng = rand.New(rand.NewSource(seed ^ 0x5e7e))
	w.stream, w.issued, w.fresh = nil, nil, 0
	w.isSent = map[serveJob]bool{}
	w.records = map[int]*served{}

	var specs []coord.BackendSpec
	for i := 0; i < 2; i++ {
		s := service.New(service.Config{Workers: 1})
		url, hs, err := listen(s.Handler())
		if err != nil {
			return err
		}
		w.backends = append(w.backends, s)
		w.servers = append(w.servers, hs)
		specs = append(specs, coord.BackendSpec{Name: fmt.Sprintf("b%d", i), URL: url})
	}
	co, err := coord.New(coord.Config{Backends: specs})
	if err != nil {
		return err
	}
	w.co = co
	url, hs, err := listen(co.Handler())
	if err != nil {
		return err
	}
	w.servers = append(w.servers, hs)
	w.url = url
	w.cl = service.NewClient(url)

	// Warm up the wire, the backends and the coordinator on the first
	// field of each pattern, under a budget the stream never uses so the
	// warm-up fills no cache entry the timed phase could hit.
	for _, i := range warmFields(w.fields) {
		f := &w.fields[i]
		resp, err := w.cl.Do(context.Background(), service.CheckRequest{Source: f.src, Config: fieldConfig(f, eval.DefaultMaxStates-1)})
		if err != nil {
			return fmt.Errorf("warm-up %s.%s: %w", f.driver, f.spec.Name, err)
		}
		if resp.State != service.StateDone {
			return fmt.Errorf("warm-up %s.%s: job ended %s: %s", f.driver, f.spec.Name, resp.State, resp.Error)
		}
	}
	return nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

func (w *serveWorkload) teardown() {
	for _, hs := range w.servers {
		hs.Close()
	}
	if w.co != nil {
		w.co.Close()
	}
	for _, s := range w.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Drain(ctx) // after the listeners closed nothing is queued that a caller waits for
		cancel()
	}
	w.servers, w.backends, w.co = nil, nil, nil
}

// streamMix lays out each run of twenty requests: N sends a field not sent
// before (in the stratified order), R repeats an earlier job, S resubmits
// a recent new field under serveAltMaxStates. Fixed slots, rather than a
// coin per request, keep the mix the same in every run. Eleven in twenty
// requests repeat, and every repeat is a cache hit: a hit answers in a few
// milliseconds and a computed job mostly in tens to hundreds. The median
// request falls at about the 91st percentile of the hits, where the
// slowest hits meet the fastest computed jobs, and the 95th among the
// budget-bound fields, which are 13% of the fields and so about 6% of the
// requests. More repeats would steady the median but move the 95th to the
// edge between budget-bound and ordinary fields: with twelve, its quartile
// spread over five runs was 0.7.
const streamMix = "NRRNRSRNRRNRSNRRRNRS"

// resubmitLag is how many new fields back a resubmission reaches, so
// resubmitted fields follow the stratified order too.
const resubmitLag = 5

// jobAt returns the i-th request of the stream, extending it as needed.
// Repeats draw from the jobs sent so far with a u² skew towards early ones,
// the way a few hot fields dominate a re-run.
func (w *serveWorkload) jobAt(i int) serveJob {
	for len(w.stream) <= i {
		var j serveJob
		switch slot := streamMix[len(w.stream)%len(streamMix)]; {
		case slot == 'N' || len(w.issued) == 0:
			j = serveJob{field: w.ord.at(w.fresh), maxStates: eval.DefaultMaxStates}
			w.fresh++
		case slot == 'R':
			u := w.rng.Float64()
			j = w.issued[int(u*u*float64(len(w.issued)))]
		default:
			j = serveJob{field: w.ord.at(max(0, w.fresh-resubmitLag)), maxStates: serveAltMaxStates}
		}
		if !w.isSent[j] {
			w.isSent[j] = true
			w.issued = append(w.issued, j)
		}
		w.stream = append(w.stream, j)
	}
	return w.stream[i]
}

func (w *serveWorkload) input(i int) (string, string) {
	j := w.jobAt(i)
	f := &w.fields[j.field]
	return fmt.Sprintf("%s.%s@%d", f.driver, f.spec.Name, j.maxStates), f.src
}

func (w *serveWorkload) check(i int, tr *tracer) outcome {
	j := w.jobAt(i)
	f := &w.fields[j.field]
	o := outcome{job: fmt.Sprintf("%s.%s@%d", f.driver, f.spec.Name, j.maxStates), want: f.want}
	rec := &served{job: j}
	t0 := time.Now()
	resp, err := traced(tr, "service.http", int64(i), func() (*service.CheckResponse, error) {
		return w.cl.Do(context.Background(), service.CheckRequest{Source: f.src, Config: fieldConfig(f, j.maxStates)})
	})
	rec.latency = time.Since(t0)
	w.records[i] = rec
	var se *service.StatusError
	switch {
	case errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable):
		rec.rejected = true
		o.err = err
		return o.judge()
	case err != nil:
		o.err = err
		return o.judge()
	case resp.State != service.StateDone || resp.Result == nil:
		o.err = fmt.Errorf("job ended %s: %s", resp.State, resp.Error)
		return o.judge()
	}
	r := resp.Result
	rec.cached = resp.Cached
	rec.serverDur = r.Stats.Phases.Total()
	rec.states, rec.steps = r.States, r.Steps
	if s := r.Stats.Summary; s != nil {
		rec.sumHits, rec.sumLookup = s.Hits, s.Hits+s.Misses
	}
	v := kiss.ResourceBound
	switch {
	case r.Verdict == kiss.Error.String():
		o.verdict, v = verdictRace, kiss.Error
	case r.Verdict == kiss.Safe.String():
		o.verdict, v = verdictNoRace, kiss.Safe
	case r.Stats.Reason == kiss.ReasonStates:
		o.verdict = verdictTimeout
	default:
		o.verdict = r.Verdict
	}
	if !resp.Cached && tr != nil {
		// The backend's own phase times and search counters for the jobs
		// it computed: on this path the layers run inside the backend.
		tr.searchStats("seqcheck", &kiss.Result{Verdict: v, Stats: r.Stats})
		tr.sums["backend.parse_ns"] += float64(r.Stats.Phases.Parse)
		tr.sums["backend.transform_ns"] += float64(r.Stats.Phases.Transform)
		tr.sums["backend.check_ns"] += float64(r.Stats.Phases.Check)
	}
	return o.judge()
}

// postCheck reruns a seeded sample of the distinct jobs the phase served
// in process and requires the same verdict, states and steps; every
// request of a job that differs is marked wrong.
func (w *serveWorkload) postCheck(outs map[int]*outcome) {
	byJob := map[serveJob][]int{}
	first := map[serveJob]*served{}
	for i, rec := range w.records {
		if outs[i] == nil || rec.rejected || outs[i].err != nil {
			continue
		}
		byJob[rec.job] = append(byJob[rec.job], i)
		if first[rec.job] == nil {
			first[rec.job] = rec
		}
	}
	jobs := make([]serveJob, 0, len(byJob))
	for j := range byJob {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].field != jobs[b].field {
			return jobs[a].field < jobs[b].field
		}
		return jobs[a].maxStates < jobs[b].maxStates
	})
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for _, j := range jobs[:min(serveRecheck, len(jobs))] {
		f := &w.fields[j.field]
		rec := first[j]
		why := ""
		prog, err := kiss.Parse(f.src)
		var res *kiss.Result
		if err == nil {
			res, err = fieldConfig(f, j.maxStates).Check(prog)
		}
		switch {
		case err != nil:
			why = fmt.Sprintf("in-process check failed: %v", err)
		case fieldVerdict(res) != outs[byJob[j][0]].verdict || res.States != rec.states || res.Steps != rec.steps:
			why = fmt.Sprintf("served %s states=%d steps=%d, in process %s states=%d steps=%d",
				outs[byJob[j][0]].verdict, rec.states, rec.steps, fieldVerdict(res), res.States, res.Steps)
		}
		if why == "" {
			continue
		}
		for _, i := range byJob[j] {
			outs[i].ok = false
			outs[i].why = why
		}
	}
}

// probePrograms compiles the translated programs of the first n distinct
// jobs the stream sent, for the Step/Hash/visited/frontier probes (the
// searches themselves ran inside the backends).
func (w *serveWorkload) probePrograms(n int) ([]*sem.Compiled, error) {
	jobs := w.issued[:min(n, len(w.issued))]
	var out []*sem.Compiled
	for _, j := range jobs {
		f := &w.fields[j.field]
		prog, err := kiss.Parse(f.src)
		if err != nil {
			return nil, err
		}
		cfg := fieldConfig(f, j.maxStates)
		seq, err := cfg.TransformRace(prog, *cfg.RaceTarget)
		if err != nil {
			return nil, err
		}
		c, err := sem.Compile(seq.AST())
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// serviceLayers derives the service-tier metrics of the phase from what
// the client saw.
func (w *serveWorkload) serviceLayers() map[string]float64 {
	var overhead []float64
	var hits, n, rejected float64
	var sumHits, sumLookups int64
	for _, rec := range w.records {
		n++
		if rec.rejected {
			rejected++
			continue
		}
		if rec.cached {
			hits++
			continue
		}
		overhead = append(overhead, float64(rec.latency-rec.serverDur)/1e6)
		sumHits += rec.sumHits
		sumLookups += rec.sumLookup
	}
	out := map[string]float64{
		"service.overhead_ms_p50":   quantile(overhead, 0.5),
		"service.rejected":          rejected,
		"service.cache_hit_ratio":   0,
		"service.summary_hit_ratio": 0,
	}
	if n > 0 {
		out["service.cache_hit_ratio"] = hits / n
	}
	if sumLookups > 0 {
		out["service.summary_hit_ratio"] = float64(sumHits) / float64(sumLookups)
	}
	return out
}

// coordCounters scrapes the coordinator's routing counters.
func (w *serveWorkload) coordCounters() (map[string]float64, error) {
	resp, err := http.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	names := map[string]string{
		"kiss_coord_owner_cache_hits_total": "coord.owner_hits",
		"kiss_coord_peer_cache_hits_total":  "coord.peer_hits",
		"kiss_coord_reroutes_total":         "coord.reroutes",
		"kiss_coord_computed_total":         "coord.computed",
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if metric, want := names[name]; ok && want {
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("coordinator metric %s: %w", name, err)
			}
			out[metric] = v
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("coordinator /metrics lacks some of %v", names)
	}
	return out, nil
}
