package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"salus/internal/core"
	"salus/internal/remote"
	"salus/internal/sched"
)

// batch-bulk: a closed loop keeping one 256-job sealed batch of 8 KiB
// inputs (2 MiB) in flight through RunBatch, on 2 boards × 1 RP.
// Byte-proportional costs dominate; the scheduler makes one routing
// decision per batch.
const (
	batchJobs     = 256
	batchPoolSize = 512
	// batchHeapAt is the batch after which the live heap is read, so
	// heap_mb compares equal work whatever the throughput.
	batchHeapAt = 8
)

// batchRun is one closed-loop segment.
type batchRun struct {
	batches, jobs, failed, mismatched int
	lat, gap                          []float64 // ms: RunBatch span, idle time between batches
	busiest                           []float64 // traced: busiest partition's share of each batch
	cpuPerBatch                       []float64 // ms of process CPU during each batch
	bytes                             float64
	elapsed                           time.Duration // window, less the paused heap reading
	heapMB                            float64
}

// closedLoop sends one batch at a time until the window has elapsed.
func closedLoop(st *stack, rng *rand.Rand, pool []item, window time.Duration, spans *spanLog) batchRun {
	var run batchRun
	picks := make([]*item, batchJobs)
	in := make([]remote.BatchInput, batchJobs)
	var paused time.Duration
	start := time.Now()
	prevEnd := start
	for time.Since(start)-paused < window {
		for i := range in {
			picks[i] = &pool[rng.Intn(len(pool))]
			in[i] = remote.BatchInput{Params: picks[i].params, Input: picks[i].input}
		}
		var before []sched.DeviceStats
		if spans != nil {
			before = st.mgr.Stats()
		}
		c0 := cpuTime()
		t0 := time.Now()
		res, err := st.sess.RunBatch("Conv", in)
		t1 := time.Now()
		run.cpuPerBatch = append(run.cpuPerBatch, ms(cpuTime()-c0))
		if spans != nil {
			run.busiest = append(run.busiest, busiestShare(before, st.mgr.Stats()))
		}
		spans.add(run.batches, "batch", "", t0, t1, err == nil)
		spans.add(run.batches, "ClusterSession.RunBatch", "batch", t0, t1, err == nil)
		run.gap = append(run.gap, ms(t0.Sub(prevEnd)))
		run.batches++
		run.jobs += batchJobs
		ok := err == nil
		for i := range in {
			switch {
			case err != nil || res[i].Err != nil:
				run.failed++
				ok = false
			case !picks[i].matches(res[i].Output):
				run.failed++
				run.mismatched++
				ok = false
			default:
				run.bytes += float64(len(picks[i].input))
			}
		}
		if ok {
			run.lat = append(run.lat, ms(t1.Sub(t0)))
		} else {
			run.lat = append(run.lat, math.Inf(1))
		}
		if run.batches == batchHeapAt {
			p := time.Now()
			run.heapMB = liveHeapMB()
			paused += time.Since(p)
		}
		prevEnd = time.Now()
	}
	run.elapsed = time.Since(start) - paused
	if run.batches < batchHeapAt {
		run.heapMB = liveHeapMB()
	}
	return run
}

func runBatchBulk(o options) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	pool, err := makePool(rng, batchPoolSize, 32, 32, 4)
	if err != nil {
		return nil, err
	}
	timing := core.FastTiming()
	timing.RealJobLatency = time.Millisecond
	cfg := stackConfig{boards: 2, rps: 1, timing: timing}
	warm := func(st *stack) error {
		in := make([]remote.BatchInput, batchJobs)
		for i := range in {
			in[i] = remote.BatchInput{Params: pool[i].params, Input: pool[i].input}
		}
		res, err := st.sess.RunBatch("Conv", in)
		if err != nil {
			return err
		}
		for i, jr := range res {
			if jr.Err != nil || !pool[i].matches(jr.Output) {
				return fmt.Errorf("warm-up job %d failed", i)
			}
		}
		return nil
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		window /= 2
	}
	b, setupS, err := buildStacks(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer b.close()

	runtime.GC() // the discarded set-up stacks are garbage of the benchmark's own
	run := closedLoop(b.stack, rng, pool, window, nil)
	fmt.Printf("batch-bulk: batches=%d jobs=%d failed=%d (mismatched=%d) over %v\n",
		run.batches, run.jobs, run.failed, run.mismatched, run.elapsed)
	r := &report{attempted: run.jobs, failed: run.failed, correct: run.mismatched == 0}
	if !o.traced {
		r.set("op_p50_ms", median(run.lat), "ms")
		r.set("op_p90_ms", quantile(run.lat, 0.9), "ms")
		r.set("mb_s", run.bytes/1e6/run.elapsed.Seconds(), "MB/s")
		r.set("cpu_ms_per_op", median(run.cpuPerBatch), "ms")
		r.set("heap_mb", run.heapMB, "MB")
		r.set("setup_s", setupS, "s")
		fmt.Printf("batch-bulk: batch_mb_s=%.4f batch_p50_ms=%.4f (n=%d) fail_frac=%.4g\n",
			run.bytes/1e6/run.elapsed.Seconds(), median(run.lat), len(run.lat), float64(run.failed)/float64(run.jobs))
		return r, nil
	}

	tb, err := newTracedStack(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	var trun batchRun
	treg, frames := tb.observe(r, func() (float64, float64) {
		trun = closedLoop(tb.stack, rng, pool, window, tb.spans)
		return float64(trun.batches), float64(trun.jobs)
	})
	fmt.Printf("batch-bulk traced: batches=%d jobs=%d failed=%d (mismatched=%d)\n", trun.batches, trun.jobs, trun.failed, trun.mismatched)
	r.attempted += trun.jobs
	r.failed += trun.failed
	r.correct = r.correct && trun.mismatched == 0

	ops := float64(trun.batches)
	// Per batch, not per window: consecutive batches alternate boards, but
	// each batch runs on one partition until batches fan out.
	setLayer(r, "sched.busiest_share", mean(trun.busiest))
	// The core sleeps RealJobLatency once per executed chunk, and each
	// chunk is one sealed register batch.
	var chunks float64
	for _, e := range frames {
		if e.Dir == "req" && e.Type == "secure_reg_batch" {
			chunks++
		}
	}
	fabricMs := ms(timing.RealJobLatency) * chunks / ops
	callMs := mean(trun.lat)
	setLayer(r, "remote.owner_crypto_ms", callMs-treg.meanMs(hCliCall))
	setLayer(r, "remote.job_p99_ms", quantile(trun.lat, 0.99))
	setLayer(r, "remote.job_samples", float64(len(trun.lat)))
	setLayer(r, "core.fabric_wait_ms", fabricMs)
	setLayer(r, "bench.gen_lag_p99_ms", quantile(trun.gap, 0.99))
	setLayer(r, "bench.trace_overhead_frac", median(trun.lat)/median(run.lat)-1)
	setLayer(r, "bench.fail_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	setLayer(r, "bench.unexplained_frac", unexplained(r, callMs, []pathLayer{
		{"remote owner seal/open", callMs - treg.meanMs(hCliCall)},
		{"rpc wire", treg.meanMs(hCliCall) - treg.meanMs(hSrvHandle)},
		{"gateway handler", treg.meanMs(hSrvHandle) - treg.meanMs(hSchedJob)},
		{"sched admission", treg.meanMs(hSchedJob) - treg.meanMs(hSchedWait) - treg.meanMs(hSchedSvc)},
		{"sched queue wait", treg.meanMs(hSchedWait)},
		{"sched service", treg.meanMs(hSchedSvc) - treg.meanMs(hCoreBatch)},
		{"core batch path", treg.meanMs(hCoreBatch) - fabricMs},
		{"fabric wait (modelled)", fabricMs},
	}, treg, map[string]float64{hCliCall: ops, hSrvHandle: ops, hSchedJob: float64(trun.jobs),
		hSchedWait: ops, hSchedSvc: ops, hCoreBatch: ops}))
	if err := finishTrace(r, o, "batch-bulk", tb.spans, tb.tap); err != nil {
		return nil, err
	}
	return r, nil
}
