package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/stream"
)

// perLayer are the metrics printed with --trace 1, in the order of
// BENCHMARK.json. meta.json maps each to the end-to-end metric it should
// move and the workload it should move it on.
var perLayer = []metricDef{
	{"solved.handler_us", "us"},
	{"solved.wire_us", "us"},
	{"solved.roundtrip_us", "us"},
	{"solved.req_bytes", "B"},
	{"solved.resp_bytes", "B"},
	{"solved.status_200", "count"},
	{"solved.status_4xx", "count"},
	{"solved.status_429", "count"},
	{"solved.status_504", "count"},
	{"solved.status_5xx", "count"},
	{"stream.submit_us", "us"},
	{"stream.ticket_us", "us"},
	{"stream.overhead_us", "us"},
	{"stream.solve_ticket_us", "us"},
	{"stream.solve_overhead_us", "us"},
	{"stream.queue_depth_mean", "jobs"},
	{"stream.queue_depth_max", "jobs"},
	{"stream.shed", "count"},
	{"stream.expired", "count"},
	{"stream.panics", "count"},
	{"stream.pred_wait_err", "ratio"},
	{"core.matmul_pass_us", "us"},
	{"core.matvec_pass_us", "us"},
	{"core.pass_overhead_us", "us"},
	{"core.executor_speedup", "x"},
	{"solve.solve_us", "us"},
	{"solve.blocklu_us", "us"},
	{"solve.tri_phases_us", "us"},
	{"solve.row_swaps", "count"},
	{"solve.refine_iters", "count"},
	{"solve.allocs_per_solve", "count"},
	{"trisolve.lower_us", "us"},
	{"trisolve.upper_us", "us"},
	{"dbt.pack_us", "us"},
	{"dbt.pack_bytes", "B"},
	{"schedule.matmul_ns_per_mac", "ns/MAC"},
	{"schedule.matvec_ns_per_mac", "ns/MAC"},
	{"schedule.sparse_ns_per_mac", "ns/MAC"},
	{"schedule.sparse_many_ns_per_mac", "ns/MAC"},
	{"schedule.exec_share", "ratio"},
	{"schedule.compile_us", "us"},
	{"schedule.plan_bytes", "B"},
	{"schedule.steps_mismatch", "count"},
	{"sparse.pass_us", "us"},
	{"sparse.pass_many_us", "us"},
	{"sparse.new_us", "us"},
	{"sparse.batch_gain", "x"},
	{"sparse.fresh_share", "ratio"},
	{"sparse.utilization", "ratio"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"allocs_per_op", "count"},
	{"trace.p50_overhead_ms", "ms"},
	{"trace.ops_overhead_pct", "%"},
	{"trace.spans", "count"},
}

// streamer is a workload that runs on a stream scheduler, whose queue
// depths and counters the traced phase samples.
type streamer interface {
	scheduler() *stream.Scheduler
}

// measureLayers is the traced run: the workload's steady load for half of
// dur untraced and half traced, the difference being the tracing
// overhead, then the layer ladder over a seeded sample of the workload's
// inputs. Metrics a traced phase measured on the workload itself take
// precedence over the ladder's. Spans are written to out.
func measureLayers(b bench, dur time.Duration, out, workload string, seed uint64) *result {
	half := dur / 2
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	un := b.traced(half, nil)
	runtime.ReadMemStats(&ms1)

	tr := NewTracer()
	var ds *depthSampler
	var st0 stream.Stats
	s, hasStream := b.(streamer)
	if hasStream {
		ds = startDepthSampler(s.scheduler())
		st0 = s.scheduler().Stats()
	}
	res := b.traced(half, tr)
	res.lines = nil // the traced phase's own timings are not end-to-end numbers
	if hasStream {
		mean, mx := ds.finish()
		st1 := s.scheduler().Stats()
		res.layers["stream.queue_depth_mean"] = mean
		res.layers["stream.queue_depth_max"] = float64(mx)
		res.layers["stream.shed"] = float64(st1.Shed - st0.Shed)
		res.layers["stream.expired"] = float64(st1.Expired - st0.Expired)
		res.layers["stream.panics"] = float64(st1.Panics - st0.Panics)
	}
	res.attempted += un.attempted
	res.failed += un.failed
	res.wrong += un.wrong
	res.errs = append(un.errs, res.errs...)
	b.check(res)

	res.layers["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(un.ops, 1))
	res.layers["trace.p50_overhead_ms"] = res.e2e["p50_ms"] - un.e2e["p50_ms"]
	res.layers["trace.ops_overhead_pct"] = 100 * (un.e2e["ops_per_s"] - res.e2e["ops_per_s"]) / un.e2e["ops_per_s"]
	res.addLine("untraced p50_ms", un.e2e["p50_ms"], "ms", un.attempted, "tracing overhead base")
	res.addLine("traced p50_ms", res.e2e["p50_ms"], "ms", res.attempted-un.attempted, "")

	runLadder(b.ladderInputs(), tr, res)

	spans := tr.Spans()
	self := selfByName(spans)
	res.layers["solved.handler_us"] = median(self["solved.handler"])
	res.layers["solved.wire_us"] = median(self["http.roundtrip"])
	res.layers["trace.spans"] = float64(len(spans))
	for _, name := range sortedKeys(self) {
		sm := summarize(self[name])
		res.addLine("self "+name, sm.P50, "us", sm.N, tailNote(sm, "us"))
	}
	for _, m := range perLayer {
		res.addLine(m.name, res.layers[m.name], m.unit, -1, "")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.tsv", workload, seed))
	if err := tr.WriteFile(path); err != nil {
		fatal(err)
	}
	res.addLine("spans written", float64(len(spans)), "count", len(spans), path)
	return res
}
