package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	kiss "repro"
	"repro/internal/sem"
)

// span is one call into a layer, recorded around the benchmark's own call.
// Spans of one check share its id; parent indexes the enclosing span in the
// tracer's list (-1 for a check's root span).
type span struct {
	ID     int64
	Name   string
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps the spans and layer counts of a phase in memory until the
// run ends. A nil *tracer records nothing, which is how the
// untraced run pays no tracing cost.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes

	// sums and calls accumulate per-layer counts (states, spilled bytes,
	// output statements, ...) and how many calls they were taken over.
	sums  map[string]float64
	calls map[string]int
	peaks map[string]float64
	// programs keeps a bounded sample of the compiled programs the run
	// checked, for the Step/Hash/visited/frontier probes.
	programs []*sem.Compiled
}

// maxProbePrograms bounds the compiled programs kept for the probes.
const maxProbePrograms = 8

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch: epoch,
		sums:  map[string]float64{},
		calls: map[string]int{},
		peaks: map[string]float64{},
	}
}

func (t *tracer) begin(name string, id int64) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		id = t.spans[parent].ID
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].End = time.Since(t.epoch)
	t.open = t.open[:n-1]
}

// add accumulates one call's count for a per-call mean.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.sums[name] += v
	t.calls[name]++
}

// peak keeps the largest value seen.
func (t *tracer) peak(name string, v float64) {
	if t == nil {
		return
	}
	if v > t.peaks[name] {
		t.peaks[name] = v
	}
}

func (t *tracer) keepProgram(c *sem.Compiled) {
	if t == nil || c == nil || len(t.programs) >= maxProbePrograms {
		return
	}
	t.programs = append(t.programs, c)
}

// searchStats records the search-layer counts of one Check or Explore
// result under the layer name (seqcheck or concheck).
func (t *tracer) searchStats(layer string, res *kiss.Result) {
	if t == nil || res == nil {
		return
	}
	st := &res.Stats
	t.add(layer+".states", float64(st.States))
	if layer != "seqcheck" {
		return
	}
	t.add("seqcheck.steps", float64(st.Steps))
	t.add("seqcheck.states_stepped", float64(st.StatesStepped))
	t.add("seqcheck.visited", float64(st.Visited))
	t.add("seqcheck.peak_frontier", float64(st.PeakFrontier))
	trip := 0.0
	if res.Verdict == kiss.ResourceBound && st.Reason == kiss.ReasonStates {
		trip = 1
	}
	t.add("seqcheck.max_states_trips", trip)
	if m := st.Memo; m != nil {
		t.sums["memo.hits"] += float64(m.Hits)
		t.sums["memo.lookups"] += float64(m.Hits + m.Misses)
		t.sums["memo.steps_saved"] += float64(m.StepsSaved)
	}
	if s := st.Summary; s != nil {
		t.sums["summary.hits"] += float64(s.Hits)
		t.sums["summary.lookups"] += float64(s.Hits + s.Misses)
		t.sums["summary.steps_saved"] += float64(s.StepsSaved)
	}
	if m := st.Memory; m != nil {
		t.add("frontier.spilled_mb", float64(m.SpilledBytes)/1e6)
		t.add("frontier.spilled_frames", float64(m.SpilledFrames))
		t.add("frontier.spill_runs", float64(m.SpilledRuns))
		t.add("frontier.merge_passes", float64(m.MergePasses))
		t.peak("frontier.peak_ram_kb", float64(m.FrontierPeakRAM)/1e3)
		if m.VisitedBytes > 0 {
			t.add("visited.filter_kb", float64(m.VisitedBytes)/1e3)
			t.add("visited.occupancy", m.VisitedOccupancy)
		}
	}
}

// traced runs fn inside a span named for its layer; with a nil tracer it
// only runs fn.
func traced[T any](t *tracer, name string, id int64, fn func() (T, error)) (T, error) {
	if t == nil {
		return fn()
	}
	t.begin(name, id)
	defer t.end()
	return fn()
}

// layerTimes returns each span name's self time (its duration minus the
// part its child spans cover) and call count.
func (t *tracer) layerTimes() (self map[string]time.Duration, calls map[string]int) {
	self, calls = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		calls[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self, calls
}

// writeSpans writes the span log as JSON Lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		parent := int64(-1)
		if s.Parent >= 0 {
			parent = int64(s.Parent)
		}
		rec := struct {
			Index  int    `json:"i"`
			ID     int64  `json:"check"`
			Name   string `json:"name"`
			Parent int64  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.ID, s.Name, parent, int64(s.Start), int64(s.End)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing span log: %w", err)
	}
	return nil
}
