package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/frontier"
	"repro/internal/sem"
	"repro/internal/visited"
)

// probeStates bounds the breadth-first search run on each kept program.
const probeStates = 4000

// probeLayers times the search's inner calls — sem.Step, FPHasher.Hash,
// visited.Set.Seen, and frontier Push/Drain — on the states reached by a
// bounded breadth-first search from each program's initial state. The
// programs are ones the traced run compiled, so the probes see the
// workload's own state shapes. Each call class is timed over a whole BFS
// level at once; timing single calls would measure the clock instead.
//
// frontierBudget is the frontier's in-RAM budget (0: no spilling); under a
// budget the push and drain timings include the spill path.
func probeLayers(progs []*sem.Compiled, frontierBudget int64, spillDir string) map[string]float64 {
	var stepNS, hashNS, seenNS, pushNS, drainNS time.Duration
	var steps, hashes, seens, pushes, drains int
	for _, c := range progs {
		h := sem.NewFPHasher()
		vis := visited.New(1)
		q := frontier.New(frontier.Config{BudgetBytes: frontierBudget, Dir: spillDir},
			frontier.Codec[*sem.State]{
				// A FIFO queue never compares keys; it only spills them.
				Key: func(s *sem.State, buf []byte) []byte { return binary.BigEndian.AppendUint32(buf, 0) },
				Encode: func(s *sem.State, buf []byte) []byte {
					return sem.AppendSnapshot(buf, s)
				},
				Decode: func(key, payload []byte, depth int) *sem.State {
					s, err := sem.DecodeSnapshot(c, payload)
					if err != nil {
						panic(fmt.Sprintf("perfbench: corrupt spilled probe frame: %v", err))
					}
					return s
				},
				Size: func(s *sem.State) int { return s.MemSize() },
			})
		s0 := sem.NewState(c)
		vis.Seen(h.Hash(s0))
		level, found := []*sem.State{s0}, 1
		for depth := 0; len(level) > 0 && found < probeStates; depth++ {
			var succ []*sem.State
			t0 := time.Now()
			for _, s := range level {
				for ti := range s.Threads {
					for _, o := range sem.Step(s, ti).Outcomes {
						succ = append(succ, o.State)
					}
					steps++
				}
			}
			stepNS += time.Since(t0)

			fps := make([]uint64, len(succ))
			t0 = time.Now()
			for i, s := range succ {
				fps[i] = h.Hash(s)
			}
			hashNS += time.Since(t0)
			hashes += len(succ)

			fresh := make([]bool, len(succ))
			t0 = time.Now()
			for i, fp := range fps {
				fresh[i] = !vis.Seen(fp)
			}
			seenNS += time.Since(t0)
			seens += len(fps)

			var next []*sem.State
			for i, s := range succ {
				if fresh[i] && found < probeStates {
					next = append(next, s)
					found++
				}
			}
			t0 = time.Now()
			for _, s := range next {
				q.Push(depth+1, s)
			}
			pushNS += time.Since(t0)
			pushes += len(next)

			t0 = time.Now()
			b := q.Drain(depth + 1)
			level = level[:0:0]
			for {
				chunk, _ := b.Next(256)
				if len(chunk) == 0 {
					break
				}
				level = append(level, chunk...)
			}
			b.Close()
			drainNS += time.Since(t0)
			drains += len(level)
		}
		q.Close()
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	return map[string]float64{
		"sem.step_ns":       per(stepNS, steps),
		"sem.hash_ns":       per(hashNS, hashes),
		"visited.insert_ns": per(seenNS, seens),
		"frontier.push_ns":  per(pushNS, pushes),
		"frontier.drain_ns": per(drainNS, drains),
	}
}
