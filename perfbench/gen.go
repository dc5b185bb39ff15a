package main

import (
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/matrix"
)

// Every input the benchmark feeds the system is drawn from a PCG stream
// keyed by (seed, stream id), so one --seed gives the same inputs on every
// run and every host.

// Stream ids separate the independent draws of one seed.
const (
	streamDenseValues uint64 = 1 + iota
	streamDenseMix
	streamHTTPMix
	streamHTTPArrivals
	streamSparseMix
	streamSparseValues
	streamSample
	streamLadder
	streamHTTPRequest = 1 << 32 // + request index
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// deck deals items in shuffled rounds: every len(items) consecutive draws
// starting at a round boundary hold exactly the multiset items, so the mix
// of a long prefix hardly depends on the seed.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	cur   []T
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] {
	return &deck[T]{rng: rng, items: items}
}

func (d *deck[T]) next() T {
	if len(d.cur) == 0 {
		d.cur = append(d.cur[:0], d.items...)
		d.rng.Shuffle(len(d.cur), func(i, j int) { d.cur[i], d.cur[j] = d.cur[j], d.cur[i] })
	}
	v := d.cur[0]
	d.cur = d.cur[1:]
	return v
}

// fillSystem writes a fresh strictly diagonally dominant system into a
// (n×n, overwritten) and d. With scramble set the rows of A and d are then
// permuted at random, so only a pivoted factorization meets the dominant
// entries on its diagonal.
func fillSystem(rng *rand.Rand, a *matrix.Dense, d matrix.Vector, scramble bool) {
	n := a.Rows()
	for i := 0; i < n; i++ {
		row := a.RawRow(i)
		sum := 0.0
		for j := range row {
			v := 2*rng.Float64() - 1
			row[j] = v
			sum += math.Abs(v)
		}
		row[i] = sum + 1 + rng.Float64()
		d[i] = 2*rng.Float64() - 1
	}
	if scramble {
		for i := n - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			if i != j {
				ri, rj := a.RawRow(i), a.RawRow(j)
				for k := range ri {
					ri[k], rj[k] = rj[k], ri[k]
				}
				d[i], d[j] = d[j], d[i]
			}
		}
	}
}

// arrivals returns the due offsets of an open-loop Poisson arrival process
// at rate per second over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	end := dur.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// residualOK reports whether x solves A·x = d to a backward-stable bound,
// 64·n·ε·(‖A‖∞‖x‖∞ + ‖d‖∞). NaN anywhere fails the check.
func residualOK(a *matrix.Dense, x, d matrix.Vector) (float64, bool) {
	n := a.Rows()
	if len(x) != n {
		return math.Inf(1), false
	}
	var res, anorm, xnorm, dnorm float64
	for i := 0; i < n; i++ {
		row := a.RawRow(i)
		s, rs := -d[i], 0.0
		for j, v := range row {
			s += v * x[j]
			rs += math.Abs(v)
		}
		res = nanMax(res, math.Abs(s))
		anorm = nanMax(anorm, rs)
		xnorm = nanMax(xnorm, math.Abs(x[i]))
		dnorm = nanMax(dnorm, math.Abs(d[i]))
	}
	tol := 64 * float64(n) * 0x1p-52 * (anorm*xnorm + dnorm)
	return res, res <= tol
}

// nanMax is max that propagates NaN.
func nanMax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return max(a, b)
}
