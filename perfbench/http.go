package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/solved"
	"repro/internal/stream"
)

// httpShapes is http-solve's size mix, one entry per (n, w) in a deck of
// 100: n ∈ {8, 16, 32, 64} weighted 40/32/22/6, w ∈ {2, 4} evenly. The
// n = 64 share is 6% rather than 10% so that p90 falls inside the n = 32,
// w = 2 requests instead of on the boundary between two size classes,
// where it would jump between them from run to run.
var httpShapes = func() []shape {
	var out []shape
	for _, nc := range []struct{ n, count int }{{8, 40}, {16, 32}, {32, 22}, {64, 6}} {
		for i := 0; i < nc.count; i++ {
			out = append(out, shape{nc.n, 2 << (i % 2)})
		}
	}
	return out
}()

// httpShapeKinds lists the distinct (n, w) pairs of httpShapes.
var httpShapeKinds = []shape{{8, 2}, {8, 4}, {16, 2}, {16, 4}, {32, 2}, {32, 4}, {64, 2}, {64, 4}}

const (
	// valueSets is how many distinct systems each (shape, scrambled) pair
	// draws its request bodies from.
	valueSets = 8
	// generousTimeout is the timeout_ms the timeout-carrying requests set.
	generousTimeout = 2000
	// httpSimPrefix is how many answered requests, in schedule order from
	// the low-rate phase on, sim_steps averages.
	httpSimPrefix = 1000
)

// system is one pre-encoded request body with the system it encodes.
type system struct {
	a    *matrix.Dense
	d    matrix.Vector
	body []byte // `{"a":[...],"d":[...]` without the closing brace
}

// reqSpec is one scheduled request: its due offset in the phase and its
// knobs.
type reqSpec struct {
	due     time.Duration
	kind    int // index into httpShapeKinds
	set     int
	pivot   bool
	refine  bool
	low     bool
	timeout bool
	sample  bool // checked bit for bit after the phase
}

// reqOutcome is what one request observed.
type reqOutcome struct {
	status   int
	lat      time.Duration // from due time to decoded response
	late     time.Duration // from due time to send
	done     time.Duration // completion, from the phase start
	steps    int
	swaps    int
	iters    int
	reqBytes int
	respLen  int
	wrong    bool
	err      string
	x        []float64 // kept only for sampled requests
}

// httpWorkload is http-solve: an open loop of POST /solve requests at
// seeded Poisson arrival times against an in-process solved.Server on a
// 127.0.0.1 listener, two sender goroutines with one connection each.
type httpWorkload struct {
	seed    uint64
	m       *meta
	s       *stream.Scheduler
	hs      *http.Server
	url     string
	clients [2]*http.Client
	systems [][2][]system // [kind][scrambled][set]
	mix     *rand.Rand
	samp    *rand.Rand
	shapes  *deck[shape]
	nextID  int64
	tracer  atomic.Pointer[Tracer]
	serveWG sync.WaitGroup
	// tracedRuns numbers the traced phases, for their arrival streams.
	tracedRuns uint64

	checks []httpCheck
}

// httpCheck is a sampled request kept for the bit-for-bit check.
type httpCheck struct {
	spec reqSpec
	x    []float64
}

func newHTTPWorkload(seed uint64, m *meta) *httpWorkload {
	mix := newRNG(seed, streamHTTPMix)
	return &httpWorkload{
		seed:   seed,
		m:      m,
		mix:    mix,
		samp:   newRNG(seed, streamSample),
		shapes: newDeck(mix, httpShapes),
	}
}

func kindOf(s shape) int {
	for i, k := range httpShapeKinds {
		if k == s {
			return i
		}
	}
	panic("perfbench: unknown http shape")
}

// encodeSystem writes `{"a":[[...],...],"d":[...]` for a, d.
func encodeSystem(a *matrix.Dense, d matrix.Vector) []byte {
	b := []byte(`{"a":[`)
	for i := 0; i < a.Rows(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, a.RawRow(i))
	}
	b = append(b, `],"d":`...)
	return appendFloats(b, d)
}

func appendFloats(b []byte, xs []float64) []byte {
	b = append(b, '[')
	for j, v := range xs {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// setup starts a two-shard stream, the solved server on a 127.0.0.1
// listener and the two clients, and sends one refined request per shape,
// which compiles every plan the timed phase uses.
func (b *httpWorkload) setup() error {
	b.s = stream.New(stream.Config{Shards: 2})
	srv := solved.New(solved.Config{Stream: b.s})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	b.url = "http://" + ln.Addr().String() + "/solve"
	b.hs = &http.Server{Handler: b.wrap(srv), ReadHeaderTimeout: 10 * time.Second}
	b.serveWG.Add(1)
	go func() {
		defer b.serveWG.Done()
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	for i := range b.clients {
		b.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	b.systems = make([][2][]system, len(httpShapeKinds))
	rng := newRNG(b.seed, streamHTTPRequest)
	var buf bytes.Buffer
	for k, s := range httpShapeKinds {
		a, d := matrix.NewDense(s.n, s.n), matrix.NewVector(s.n)
		fillSystem(rng, a, d, false)
		b.systems[k][0] = []system{{a: a, d: d, body: encodeSystem(a, d)}}
		out := b.send(b.clients[0], &buf, reqSpec{kind: k, refine: true}, time.Now(), nil, -1)
		if out.status != http.StatusOK || out.wrong {
			return fmt.Errorf("http-solve warm-up %v: status %d %s", s, out.status, out.err)
		}
	}
	return nil
}

// prepare encodes the request bodies: valueSets systems per shape, plain
// and row-scrambled, so the open loop spends no time encoding.
func (b *httpWorkload) prepare() error {
	rng := newRNG(b.seed, streamHTTPRequest+1)
	for k, s := range httpShapeKinds {
		for scr := 0; scr < 2; scr++ {
			b.systems[k][scr] = b.systems[k][scr][:0]
			for i := 0; i < valueSets; i++ {
				a, d := matrix.NewDense(s.n, s.n), matrix.NewVector(s.n)
				fillSystem(rng, a, d, scr == 1)
				b.systems[k][scr] = append(b.systems[k][scr], system{a: a, d: d, body: encodeSystem(a, d)})
			}
		}
	}
	return nil
}

// wrap puts the span wrapper around the server: with a tracer set it
// records a solved.handler span as the child of the client's round-trip
// span, whose index arrives in a request header.
func (b *httpWorkload) wrap(srv *solved.Server) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		tracedServe(b.tracer.Load(), srv, rw, req)
	})
}

// tracedServe serves req, recording with a non-nil tracer a
// solved.handler span whose parent and request id arrive in the headers
// setSpanHeaders wrote.
func tracedServe(tr *Tracer, srv *solved.Server, rw http.ResponseWriter, req *http.Request) {
	if tr == nil {
		srv.ServeHTTP(rw, req)
		return
	}
	parent, err := strconv.Atoi(req.Header.Get("X-Span"))
	if err != nil {
		parent = -1
	}
	id, _ := strconv.ParseInt(req.Header.Get("X-Req"), 10, 64) // 0 when absent
	start := tr.Now()
	srv.ServeHTTP(rw, req)
	tr.Add("solved.handler", start, tr.Now(), parent, id)
}

// setSpanHeaders passes the client span and request id to the server.
func setSpanHeaders(req *http.Request, span int, id int64) {
	req.Header.Set("X-Span", strconv.Itoa(span))
	req.Header.Set("X-Req", strconv.FormatInt(id, 10))
}

func (b *httpWorkload) close() {
	if b.hs != nil {
		_ = b.hs.Close() // closes the listener and every connection
		b.serveWG.Wait()
	}
	for _, c := range b.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if b.s != nil {
		b.s.Close()
	}
}

// plan returns the requests of one open-loop phase at rate for dur.
func (b *httpWorkload) plan(rate float64, dur time.Duration, phase uint64) []reqSpec {
	due := arrivals(newRNG(b.seed, streamHTTPArrivals+phase<<8), rate, dur)
	specs := make([]reqSpec, len(due))
	for i, t := range due {
		sp := &specs[i]
		sp.due = t
		sp.kind = kindOf(b.shapes.next())
		sp.set = b.mix.IntN(valueSets)
		sp.pivot = b.mix.IntN(4) == 0
		sp.refine = b.mix.IntN(10) == 0
		sp.low = b.mix.IntN(10) == 0
		sp.timeout = b.mix.IntN(10) == 0
		sp.sample = b.samp.IntN(b.m.HTTP.SampleEvery) == 0
	}
	return specs
}

// sendAll sends specs from two sender goroutines, one connection each,
// each taking the next request as soon as it is free and waiting for its
// due time, and returns the outcomes in schedule order.
func (b *httpWorkload) sendAll(specs []reqSpec, tr *Tracer) []reqOutcome {
	outs := make([]reqOutcome, len(specs))
	base := b.nextID
	b.nextID += int64(len(specs))
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				outs[i] = b.send(client, &buf, specs[i], start.Add(specs[i].due), tr, base+int64(i))
				outs[i].done = time.Since(start)
			}
		}(b.clients[c])
	}
	wg.Wait()
	return outs
}

// send builds one request, waits for its due time, sends it and checks the
// answer's residual.
func (b *httpWorkload) send(client *http.Client, buf *bytes.Buffer, sp reqSpec, due time.Time, tr *Tracer, reqID int64) reqOutcome {
	var out reqOutcome
	sys := &b.systems[sp.kind][boolInt(sp.pivot)][sp.set]
	buf.Reset()
	buf.Write(sys.body)
	fmt.Fprintf(buf, `,"w":%d`, httpShapeKinds[sp.kind].w)
	if sp.pivot {
		buf.WriteString(`,"pivot":"partial"`)
	}
	if sp.refine {
		buf.WriteString(`,"refine":{"max_iters":3}`)
	}
	if sp.low {
		buf.WriteString(`,"priority":"low"`)
	}
	if sp.timeout {
		fmt.Fprintf(buf, `,"timeout_ms":%d`, generousTimeout)
	}
	buf.WriteByte('}')
	out.reqBytes = buf.Len()
	req, err := http.NewRequest(http.MethodPost, b.url, bytes.NewReader(buf.Bytes()))
	if err != nil {
		out.err = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	sent := time.Now()
	out.late = sent.Sub(due)
	span := tr.Begin("http.roundtrip", -1, reqID)
	if tr != nil {
		setSpanHeaders(req, span, reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		tr.End(span)
		out.lat = time.Since(due)
		out.err = err.Error()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	out.respLen = len(body)
	if err != nil {
		tr.End(span)
		out.lat = time.Since(due)
		out.err = err.Error()
		return out
	}
	var r solved.Response
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &r)
	}
	tr.End(span)
	out.lat = time.Since(due)
	switch {
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case err != nil:
		out.err = "decode: " + err.Error()
		out.wrong = true
	default:
		if res, ok := residualOK(sys.a, r.X, sys.d); !ok {
			out.wrong = true
			out.err = fmt.Sprintf("residual %g over bound", res)
		}
		out.steps = solveSteps(&r.Stats)
		out.swaps, out.iters = r.Stats.LU.RowSwaps, r.Stats.Refine.Iters
		if sp.sample {
			out.x = r.X
		}
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// phaseStats reduces one phase's outcomes.
type phaseStats struct {
	lat      Summary       // ms, every attempted request (failures included)
	series   series        // the same latencies by completion time
	rtSum    time.Duration // summed send-to-answer times
	late     []time.Duration
	failed   int
	wrong    int
	attempts int
	status   map[int]int
	steps    []int
	swaps    int
	iters    int
	reqBytes []float64
	respLen  []float64
	errs     []string
}

func (b *httpWorkload) reduce(specs []reqSpec, outs []reqOutcome) *phaseStats {
	ps := &phaseStats{status: map[int]int{}, attempts: len(outs)}
	lat := make([]float64, 0, len(outs))
	for i, o := range outs {
		lat = append(lat, float64(o.lat)/float64(time.Millisecond))
		ps.series.add(o.done, float64(o.lat)/float64(time.Millisecond), 1)
		ps.rtSum += o.lat - o.late
		ps.late = append(ps.late, o.late)
		ps.status[o.status]++
		ps.reqBytes = append(ps.reqBytes, float64(o.reqBytes))
		ps.respLen = append(ps.respLen, float64(o.respLen))
		if o.err != "" {
			ps.failed++
			if o.wrong {
				ps.wrong++
			}
			ps.errs = appendErr(ps.errs, fmt.Sprintf("request %d %v: %s", i, httpShapeKinds[specs[i].kind], o.err))
			continue
		}
		ps.steps = append(ps.steps, o.steps)
		ps.swaps += o.swaps
		ps.iters += o.iters
		if specs[i].sample {
			b.checks = append(b.checks, httpCheck{spec: specs[i], x: o.x})
		}
	}
	ps.lat = summarize(lat)
	return ps
}

// roundTripRate is the phase's requests per second of connection time:
// all attempted requests over their summed send-to-answer times. It is
// taken over the whole phase, whose size mix the deck fixes exactly; a
// 500 ms block holds too few n = 64 requests for a stable mean.
func (ps *phaseStats) roundTripRate() float64 {
	return float64(ps.attempts) / ps.rtSum.Seconds()
}

// rung is one step of the rate ladder.
type rung struct {
	rate    float64
	p90     float64
	n       int
	failed  int
	backlog bool
	pass    bool
}

// ladder climbs the fixed rates of meta.json for rungDur each until a rung
// misses the limit, then halves the gap between the last passing and the
// first failing rate twice. A rung passes when p90 (timed from due times)
// is at most the limit, nothing failed, and the backlog is not growing.
func (b *httpWorkload) ladder(rungDur time.Duration, phase uint64, res *result) (float64, []rung) {
	var rungs []rung
	try := func(rate float64) bool {
		specs := b.plan(rate, rungDur, phase)
		phase++
		ps := b.reduce(specs, b.sendAll(specs, nil))
		r := rung{rate: rate, p90: ps.lat.P90, n: ps.lat.N, failed: ps.failed,
			backlog: backlogGrowing(ps.late, time.Duration(b.m.HTTP.BacklogMS*float64(time.Millisecond)))}
		r.pass = r.failed == 0 && !r.backlog && r.p90 <= b.m.HTTP.P90LimitMS
		res.wrong += ps.wrong
		res.failed += ps.wrong
		res.ops += ps.attempts - ps.failed
		res.errs = append(res.errs, wrongOnly(ps)...)
		rungs = append(rungs, r)
		return r.pass
	}
	best, fail := 0.0, 0.0
	for _, rate := range b.m.HTTP.Ladder {
		if !try(rate) {
			fail = rate
			break
		}
		best = rate
	}
	if fail > 0 && best > 0 {
		for i := 0; i < 2; i++ {
			mid := (best + fail) / 2
			if try(mid) {
				best = mid
			} else {
				fail = mid
			}
		}
	}
	return best, rungs
}

// wrongOnly returns the error lines of wrong answers: on the ladder,
// refusals past the knee are expected, wrong answers never are.
func wrongOnly(ps *phaseStats) []string {
	if ps.wrong == 0 {
		return nil
	}
	return ps.errs
}

func (b *httpWorkload) scheduler() *stream.Scheduler { return b.s }

func (b *httpWorkload) ladderInputs() ladderSample {
	return buildLadderSample(b.seed, httpShapeKinds)
}

// e2e runs the low-rate phase (40% of dur), the high-rate phase (15%) and
// the rate ladder (the rest at most). The gated numbers come from the low
// rate: the median-block p50 and p90 and the round trips per second of
// connection time. At the high rate queueing behind the slowest requests
// amplifies the host's speed swings in p90 past any useful bound, and a
// closed loop at saturation settles at run-to-run levels more than 25%
// apart, so the high rate and the ladder's http_max_rps are printed only.
func (b *httpWorkload) e2e(dur time.Duration) *result {
	res := newResult()
	rates := b.m.HTTP.Rates
	var steps []int
	for i, ph := range []struct {
		name string
		rate float64
		dur  time.Duration
	}{{"low", rates.Low, dur * 40 / 100}, {"high", rates.High, dur * 15 / 100}} {
		specs := b.plan(ph.rate, ph.dur, uint64(i))
		ps := b.reduce(specs, b.sendAll(specs, nil))
		res.attempted += ps.attempts
		res.failed += ps.failed
		res.wrong += ps.wrong
		res.ops += ps.attempts - ps.failed
		res.errs = append(res.errs, ps.errs...)
		steps = append(steps, ps.steps...)
		_, p50, p90 := medianBlocks(ps.series.blocks(ph.dur, 0))
		rtRate := ps.roundTripRate()
		note := fmt.Sprintf("%g req/s; median block; whole phase p50=%.4g p90=%.4g %s", ph.rate, ps.lat.P50, ps.lat.P90, tailNote(ps.lat, "ms"))
		res.addLine("http_p50_ms."+ph.name, p50, "ms", ps.lat.N, note)
		res.addLine("http_p90_ms."+ph.name, p90, "ms", ps.lat.N, note)
		res.addLine("http_rt_per_s."+ph.name, rtRate, "1/s", ps.lat.N, "round trips per second of connection time, whole phase")
		lateMS := durMS(ps.late)
		ls := summarize(lateMS)
		res.addLine("loadgen_late_p50_ms."+ph.name, ls.P50, "ms", ls.N, fmt.Sprintf("generator lateness; max %.4g ms", lateMS[len(lateMS)-1]))
		if ph.name == "low" {
			res.e2e["p50_ms"] = p50
			res.e2e["p90_ms"] = p90
			res.e2e["ops_per_s"] = rtRate
		}
	}

	maxRPS, rungs := b.ladder(dur*45/100/time.Duration(len(b.m.HTTP.Ladder)), 2, res)
	for _, r := range rungs {
		res.addLine(fmt.Sprintf("ladder@%g", r.rate), r.p90, "ms", r.n,
			fmt.Sprintf("p90; failed=%d backlog=%v pass=%v", r.failed, r.backlog, r.pass))
	}
	res.addLine("http_max_rps", maxRPS, "req/s", len(rungs), fmt.Sprintf("highest rung with p90 <= %g ms, no failures, no growing backlog", b.m.HTTP.P90LimitMS))

	steps = steps[:min(len(steps), httpSimPrefix)]
	sim := 0.0
	for _, st := range steps {
		sim += float64(st)
	}
	sim /= float64(max(len(steps), 1))
	res.e2e["sim_steps"] = sim
	res.addLine("sim_steps", sim, "steps", len(steps), fmt.Sprintf("mean over the first %d answered requests", httpSimPrefix))
	return res
}

// traced runs the high-rate phase for dur.
func (b *httpWorkload) traced(dur time.Duration, tr *Tracer) *result {
	res := newResult()
	b.tracer.Store(tr)
	defer b.tracer.Store(nil)
	b.tracedRuns++
	specs := b.plan(b.m.HTTP.Rates.High, dur, 100+b.tracedRuns)
	ps := b.reduce(specs, b.sendAll(specs, tr))
	res.attempted, res.failed, res.wrong = ps.attempts, ps.failed, ps.wrong
	res.ops = ps.attempts - ps.failed
	res.errs = ps.errs
	_, res.e2e["p50_ms"], res.e2e["p90_ms"] = medianBlocks(ps.series.blocks(dur, 0))
	res.e2e["ops_per_s"] = ps.roundTripRate()
	res.layers["solved.req_bytes"] = median(ps.reqBytes)
	res.layers["solved.resp_bytes"] = median(ps.respLen)
	addStatuses(ps.status, func(name string, v float64) { res.layers[name] = v })
	ok := float64(max(res.ops, 1))
	res.layers["solve.row_swaps"] = float64(ps.swaps) / ok
	res.layers["solve.refine_iters"] = float64(ps.iters) / ok
	lateMS := durMS(ps.late)
	res.layers["loadgen.late_p50_ms"] = summarize(lateMS).P50
	res.layers["loadgen.late_max_ms"] = quantile(lateMS, 1)
	return res
}

// check re-solves every sampled request with solve.Workspace.Solve and
// compares the HTTP answer bit for bit.
func (b *httpWorkload) check(res *result) {
	ws := map[int]*solve.Workspace{}
	for _, c := range b.checks {
		k := httpShapeKinds[c.spec.kind]
		if ws[k.w] == nil {
			ws[k.w] = solve.NewWorkspace(k.w)
		}
		sys := &b.systems[c.spec.kind][boolInt(c.spec.pivot)][c.spec.set]
		x, _, err := ws[k.w].Solve(sys.a, sys.d, optionsFor(c.spec.pivot, c.spec.refine))
		if err != nil || !bitEqual(x, c.x) {
			res.failed++
			res.wrong++
			res.errs = appendErr(res.errs, fmt.Sprintf("sampled request %v: HTTP answer differs from Workspace.Solve (err %v)", k, err))
		}
	}
	res.addLine("http_bitwise_checks", float64(len(b.checks)), "count", len(b.checks), "sampled answers compared bit for bit with Workspace.Solve")
	b.checks = nil
}
