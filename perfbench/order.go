package main

import "math/rand"

// order is the seeded, endless sequence of input indexes a workload runs:
// pass after pass over its population, each pass a fresh permutation.
//
// Within a pass the inputs are interleaved with smooth weighted round
// robin at two levels: between cost classes (a Table 1 field that trips
// its state budget costs ten times an ordinary one), and within a class
// between strata (a driver's fields of one pattern). Every prefix of a
// pass then holds each class, and within it each stratum, in proportion
// to its size, give or take one. Without this a short run's cost would
// depend on which inputs the seed happened to put first, and two seeds
// would measure different mixes.
type order struct {
	rng     *rand.Rand
	classes [][][]int
	seq     []int
}

func newOrder(seed int64, classes [][][]int) *order {
	return &order{rng: rand.New(rand.NewSource(seed)), classes: classes}
}

// at returns the input index of the i-th check.
func (o *order) at(i int) int {
	for i >= len(o.seq) {
		o.seq = append(o.seq, o.pass()...)
	}
	return o.seq[i]
}

// rr is one level of smooth weighted round robin over groups of the given
// sizes. A random starting credit shifts each group's phase per seed
// without disturbing the proportions.
type rr struct {
	size, left, credit []int
	total              int
}

func newRR(rng *rand.Rand, sizes []int) *rr {
	r := &rr{size: sizes, left: append([]int(nil), sizes...), credit: make([]int, len(sizes))}
	for _, n := range sizes {
		r.total += n
	}
	for g := range r.credit {
		r.credit[g] = rng.Intn(r.total + 1)
	}
	return r
}

// next picks the group the next item comes from.
func (r *rr) next() int {
	best := -1
	for g := range r.size {
		if r.left[g] == 0 {
			continue
		}
		r.credit[g] += r.size[g]
		if best < 0 || r.credit[g] > r.credit[best] {
			best = g
		}
	}
	r.credit[best] -= r.total
	r.left[best]--
	return best
}

// pass builds one stratified permutation of the whole population.
func (o *order) pass() []int {
	var classSizes []int
	strata := make([][][]int, len(o.classes))
	within := make([]*rr, len(o.classes))
	total := 0
	for c, class := range o.classes {
		var sizes []int
		n := 0
		for _, members := range class {
			q := append([]int(nil), members...)
			o.rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
			strata[c] = append(strata[c], q)
			sizes = append(sizes, len(q))
			n += len(q)
		}
		within[c] = newRR(o.rng, sizes)
		classSizes = append(classSizes, n)
		total += n
	}
	between := newRR(o.rng, classSizes)
	out := make([]int, 0, total)
	for len(out) < total {
		c := between.next()
		s := within[c].next()
		out = append(out, strata[c][s][0])
		strata[c][s] = strata[c][s][1:]
	}
	return out
}
