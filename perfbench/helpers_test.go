package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/matrix"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0.5 && c.n-rank(c.n, q) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, q*100, c.n-rank(c.n, q))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.P90 != 90 || s.TailQ != 0.9 || s.Tail != 90 {
		t.Fatalf("summarize = %+v", s)
	}
	one := summarize([]float64{7})
	if one.N != 1 || one.P50 != 7 || one.P90 != 7 {
		t.Fatalf("summarize single = %+v", one)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},  // overlaps the first
		{Name: "child", Start: 80, End: 120, Parent: 0}, // runs past the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 5, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 20, 20 - 6, 30, 40, 6, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	by := selfByName(spans)
	if len(by["child"]) != 3 || by["parent"][0] != 0.04 {
		t.Fatalf("selfByName = %v", by)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", -1, 0)
	tr.End(id)
	if id != -1 || tr.Spans() != nil || tr.Add("y", 0, 1, -1, 0) != -1 {
		t.Fatal("nil tracer recorded something")
	}
	tr = NewTracer()
	p := tr.Begin("p", -1, 7)
	c := tr.Begin("c", p, 7)
	tr.End(c)
	tr.End(p)
	sp := tr.Spans()
	if len(sp) != 2 || sp[1].Parent != p || sp[0].End < sp[1].End || sp[0].Req != 7 {
		t.Fatalf("spans = %+v", sp)
	}
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	a := arrivals(newRNG(5, streamHTTPArrivals), 500, time.Second)
	b := arrivals(newRNG(5, streamHTTPArrivals), 500, time.Second)
	c := arrivals(newRNG(6, streamHTTPArrivals), 500, time.Second)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("arrivals are not a function of the seed")
	}
	if len(a) < 400 || len(a) > 600 {
		t.Fatalf("%d arrivals at 500/s over 1s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d out of order or range: %v", i, a[i])
		}
	}

	m, err := loadMeta()
	if err != nil {
		t.Fatal(err)
	}
	p1 := newHTTPWorkload(9, m).plan(400, time.Second, 0)
	p2 := newHTTPWorkload(9, m).plan(400, time.Second, 0)
	p3 := newHTTPWorkload(10, m).plan(400, time.Second, 0)
	if !reflect.DeepEqual(p1, p2) || reflect.DeepEqual(p1, p3) {
		t.Fatal("http plans are not a function of the seed")
	}

	d1, d2 := newDenseBench(3), newDenseBench(3)
	for i := 0; i < 100; i++ {
		if x, y := d1.draw(), d2.draw(); x != y {
			t.Fatalf("dense draw %d differs: %+v vs %+v", i, x, y)
		}
	}
	m1, m2 := matrix.NewDense(8, 8), matrix.NewDense(8, 8)
	v1, v2 := matrix.NewVector(8), matrix.NewVector(8)
	fillSystem(newRNG(3, 1), m1, v1, true)
	fillSystem(newRNG(3, 1), m2, v2, true)
	if !reflect.DeepEqual(m1.Raw(), m2.Raw()) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("fillSystem is not a function of the seed")
	}
}

func TestDeckDealsWholeRounds(t *testing.T) {
	items := []int{0, 0, 0, 1, 2, 2}
	d := newDeck(newRNG(1, 1), items)
	for round := 0; round < 5; round++ {
		count := map[int]int{}
		for i := 0; i < len(items); i++ {
			count[d.next()]++
		}
		if count[0] != 3 || count[1] != 1 || count[2] != 2 {
			t.Fatalf("round %d dealt %v", round, count)
		}
	}
	counts := map[int]int{}
	for _, s := range httpShapes {
		counts[s.n]++
	}
	if len(httpShapes) != 100 || counts[8] != 40 || counts[16] != 32 || counts[32] != 22 || counts[64] != 6 {
		t.Fatalf("http size mix %v over %d", counts, len(httpShapes))
	}
}

func TestBacklogRule(t *testing.T) {
	ms := time.Millisecond
	steady := make([]time.Duration, 400)
	growing := make([]time.Duration, 400)
	small := make([]time.Duration, 400)
	for i := range steady {
		steady[i] = time.Duration(i%7) * 100 * time.Microsecond
		growing[i] = time.Duration(i) * 50 * time.Microsecond // 20 ms behind by the end
		small[i] = 200*time.Microsecond + time.Duration(i)*time.Microsecond
	}
	if backlogGrowing(steady, ms) {
		t.Error("steady lateness flagged as a growing backlog")
	}
	if !backlogGrowing(growing, ms) {
		t.Error("linearly growing lateness not flagged")
	}
	if backlogGrowing(small, ms) {
		t.Error("growth within the slack flagged")
	}
	if backlogGrowing(growing[:7], ms) {
		t.Error("a rung with fewer than eight requests flagged")
	}
}

func TestMedianBlocks(t *testing.T) {
	var s series
	// Ten 500 ms blocks of ten samples, latency 1 ms, two units each,
	// except three slow blocks at 5 ms with half the samples: the median
	// block ignores them.
	for b := 0; b < 10; b++ {
		n, lat := 10, 1.0
		if b == 1 || b == 3 || b == 7 {
			n, lat = 5, 5
		}
		for i := 0; i < n; i++ {
			s.add(time.Duration(b)*blockLen+time.Duration(i)*time.Millisecond, lat, 2)
		}
	}
	bs := s.blocks(10*blockLen, 0)
	if len(bs) != 10 {
		t.Fatalf("%d blocks, want 10", len(bs))
	}
	rate, p50, p90 := medianBlocks(bs)
	if rate != 40 || p50 != 1 || p90 != 1 {
		t.Fatalf("medianBlocks = %v %v %v, want 40 1 1", rate, p50, p90)
	}
	if busy := s.blocks(10*blockLen, 1e-3)[0].rate; busy != 2000 {
		t.Fatalf("busy rate = %v, want 2000", busy)
	}
	// A short tail is merged into the last whole block.
	s.add(10*blockLen+time.Millisecond, 1, 2)
	if got := len(s.blocks(10*blockLen+100*time.Millisecond, 0)); got != 10 {
		t.Fatalf("%d blocks with a short tail, want 10", got)
	}
}

func TestResidualCheckRejectsNaN(t *testing.T) {
	a := matrix.FromRows([][]float64{{2, 0}, {0, 4}})
	d := matrix.Vector{2, 4}
	if _, ok := residualOK(a, matrix.Vector{1, 1}, d); !ok {
		t.Error("exact solution rejected")
	}
	nan := 0.0
	nan /= nan
	if _, ok := residualOK(a, matrix.Vector{nan, 1}, d); ok {
		t.Error("NaN solution accepted")
	}
	if _, ok := residualOK(a, matrix.Vector{1, 2}, d); ok {
		t.Error("wrong solution accepted")
	}
}
