package main

import (
	"math"
	"sort"
	"time"
)

// Summary is a latency distribution reduced to what the benchmark reports:
// the sample count, the median, p90 and the highest tail percentile that
// still has at least ten samples beyond it (TailQ names which one).
type Summary struct {
	N     int
	P50   float64
	P90   float64
	Tail  float64
	TailQ float64
}

// tailQuantiles are the tail percentiles the benchmark may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tailQuantile returns the highest of tailQuantiles that leaves at least
// ten of n samples beyond its nearest-rank position, or 0.5 when even p90
// does not (fewer than 100 samples).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rank(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// rank is the 1-based nearest-rank position of quantile q among n sorted
// samples: the smallest r with r/n >= q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// summarize sorts xs in place and reduces it to a Summary.
func summarize(xs []float64) Summary {
	sort.Float64s(xs)
	s := Summary{N: len(xs)}
	if s.N == 0 {
		nan := math.NaN()
		return Summary{P50: nan, P90: nan, Tail: nan}
	}
	s.P50 = quantile(xs, 0.5)
	s.P90 = quantile(xs, 0.9)
	s.TailQ = tailQuantile(s.N)
	s.Tail = quantile(xs, s.TailQ)
	return s
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return summarize(c).P50
}

// durMS converts durations to float milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// backlogGrowing is the ladder's "growing backlog" rule. lateness holds,
// in due-time order, how late each request of one rung started after its
// due time. The backlog counts as growing when the median lateness of the
// last quarter of the rung exceeds that of the first quarter by more than
// slack and by more than a factor of two: a generator that keeps up starts
// every quarter about equally late, while a queue that grows without bound
// pushes each later request further behind its due time. Rungs with fewer
// than eight requests never count as growing.
func backlogGrowing(lateness []time.Duration, slack time.Duration) bool {
	n := len(lateness)
	if n < 8 {
		return false
	}
	q := n / 4
	first := durMedian(lateness[:q])
	last := durMedian(lateness[n-q:])
	return last > first+slack && last > 2*first
}

// durMedian returns the lower median of ds without modifying it.
func durMedian(ds []time.Duration) time.Duration {
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[(len(c)-1)/2]
}

// blockLen is the length of the blocks a phase is split into. The gated
// timings are medians over blocks: the benchmark host is a shared virtual
// machine whose speed swings by about 30% within seconds (a float loop
// outside the repository swings the same way), and the median block
// keeps a few seconds of a busy neighbour from moving a run's result.
const blockLen = 500 * time.Millisecond

// series holds one timed phase's samples in completion order: when each
// finished (offset from the phase start), its latency, and how many units
// of work (solves, vectors, requests) it completed.
type series struct {
	at    []time.Duration
	lat   []float64
	units []int32
}

func (s *series) add(at time.Duration, lat float64, units int) {
	s.at = append(s.at, at)
	s.lat = append(s.lat, lat)
	s.units = append(s.units, int32(units))
}

// blockStat is one block's rate and latency percentiles.
type blockStat struct{ rate, p50, p90 float64 }

// blocks splits the phase [0, span) into blocks of blockLen by completion
// time (a short last block is merged into the one before) and returns
// each block's rate and p50 and p90 latency. A block's rate is its units
// over its length or, when latUnit (seconds per latency unit) is non-zero,
// over the summed latency of its samples: the time a single closed-loop
// caller spent inside the system.
func (s *series) blocks(span time.Duration, latUnit float64) []blockStat {
	nb := max(int(span/blockLen), 1)
	var out []blockStat
	i := 0
	for b := 0; b < nb; b++ {
		end := blockLen * time.Duration(b+1)
		length := blockLen
		if b == nb-1 {
			length = span - blockLen*time.Duration(nb-1)
		}
		var lat []float64
		units, sum := 0, 0.0
		for ; i < len(s.at) && (s.at[i] < end || b == nb-1); i++ {
			lat = append(lat, s.lat[i])
			units += int(s.units[i])
			sum += s.lat[i]
		}
		if len(lat) == 0 {
			continue
		}
		bs := blockStat{rate: float64(units) / length.Seconds()}
		if latUnit > 0 {
			bs.rate = float64(units) / (sum * latUnit)
		}
		sm := summarize(lat)
		bs.p50, bs.p90 = sm.P50, sm.P90
		out = append(out, bs)
	}
	return out
}

// medianBlocks returns the median block rate, p50 and p90, each ranked on
// its own.
func medianBlocks(bs []blockStat) (rate, p50, p90 float64) {
	var rates, p50s, p90s []float64
	for _, b := range bs {
		rates, p50s, p90s = append(rates, b.rate), append(p50s, b.p50), append(p90s, b.p90)
	}
	return median(rates), median(p50s), median(p90s)
}
