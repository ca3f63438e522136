package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"salus/internal/core"
)

// jobs-open: seeded Poisson arrivals of single sealed jobs from one
// session to 2 boards × 2 RPs, about a third of the rate at which a
// 2-core host saturates. Per-job fixed costs dominate.
const (
	openRate        = 800.0 // jobs per second
	openSmallShare  = 0.7   // share of 128 B (Conv 8×8×1) inputs; the rest are 8 KiB (Conv 32×32×4)
	openMaxInFlight = 1024  // a backlog this deep stalls the generator, which gen lag then shows
	poolSize        = 256
	openSubWindows  = 10
)

// arrival is one scheduled job.
type arrival struct {
	at time.Duration // offset from the start of the schedule
	it *item
}

// outcome is what happened to one scheduled job.
type outcome struct {
	due, sent, done time.Time
	ok, mismatch    bool
}

// schedule draws the arrivals of a Poisson process at openRate over d,
// conditioned on its expected count: that many uniform arrival times,
// sorted, with exactly openSmallShare of them small. Every seed then
// offers the same work, and seeds differ only in timing and inputs.
func schedule(rng *rand.Rand, d time.Duration, small, large []item) []arrival {
	n := int(math.Round(openRate * d.Seconds()))
	nSmall := int(math.Round(openSmallShare * float64(n)))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	isSmall := make([]bool, n)
	for i := 0; i < nSmall; i++ {
		isSmall[i] = true
	}
	rng.Shuffle(n, func(i, j int) { isSmall[i], isSmall[j] = isSmall[j], isSmall[i] })
	out := make([]arrival, n)
	for i := range out {
		pool := large
		if isSmall[i] {
			pool = small
		}
		out[i] = arrival{at: at[i], it: &pool[rng.Intn(len(pool))]}
	}
	return out
}

// openLoop sends every arrival when it is due, whether or not earlier jobs
// have finished, and waits for all of them. It also reads the process CPU
// time when the schedule crosses each of subs equal sub-windows of d, so
// cpu holds subs+1 marks.
func openLoop(st *stack, arr []arrival, spans *spanLog, d time.Duration, subs int) (outs []outcome, cpu []time.Duration) {
	outs = make([]outcome, len(arr))
	sem := make(chan struct{}, openMaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	cpu = append(cpu, cpuTime())
	for i := range arr {
		for len(cpu) < subs && arr[i].at >= d*time.Duration(len(cpu))/time.Duration(subs) {
			cpu = append(cpu, cpuTime())
		}
		due := start.Add(arr[i].at)
		waitUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			it := arr[i].it
			out, err := st.sess.RunJob("Conv", it.params, it.input)
			done := time.Now()
			<-sem
			outs[i] = outcome{due: due, sent: sent, done: done, ok: err == nil && it.matches(out), mismatch: err == nil && !it.matches(out)}
			spans.add(i, "job", "", due, done, outs[i].ok)
			spans.add(i, "ClusterSession.RunJob", "job", sent, done, err == nil)
		}(i, due)
	}
	wg.Wait()
	for len(cpu) <= subs {
		cpu = append(cpu, cpuTime())
	}
	return outs, cpu
}

// waitUntil returns at t. time.Sleep wakes up to a millisecond late, the
// resolution of the runtime's poller, and that would count as generator
// lag; so the last two milliseconds are slept with nanosleep.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR ends the sleep early; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// openSummary condenses one open-loop segment.
type openSummary struct {
	sent, ok, failed, mismatched int
	lat, lag, call               []float64 // ms per job: due->done, due->sent, sent->done
	bytes                        float64
	span                         time.Duration // first due to last completion
	// Medians over the sub-windows of each sub-window's latency
	// percentiles and CPU per job, so a burst of outside interference
	// moves a few sub-windows, not the result.
	p50, p90, cpuPerJob float64
}

func summarize(arr []arrival, outs []outcome, d time.Duration, cpu []time.Duration) openSummary {
	s := openSummary{sent: len(outs)}
	if len(outs) == 0 {
		return s
	}
	subs := len(cpu) - 1
	subLat := make([][]float64, subs)
	first, last := outs[0].due, outs[0].done
	for i, o := range outs {
		k := min(int(arr[i].at*time.Duration(subs)/d), subs-1)
		s.lag = append(s.lag, ms(o.sent.Sub(o.due)))
		s.call = append(s.call, ms(o.done.Sub(o.sent)))
		if o.done.After(last) {
			last = o.done
		}
		lat := ms(o.done.Sub(o.due))
		if !o.ok {
			s.failed++
			if o.mismatch {
				s.mismatched++
			}
			lat = math.Inf(1)
		} else {
			s.ok++
			s.bytes += float64(len(arr[i].it.input))
		}
		s.lat = append(s.lat, lat)
		subLat[k] = append(subLat[k], lat)
	}
	s.span = last.Sub(first)
	var p50s, p90s, cpus []float64
	for k, l := range subLat {
		if len(l) == 0 {
			continue
		}
		p50s = append(p50s, median(l))
		p90s = append(p90s, quantile(l, 0.9))
		cpus = append(cpus, ms(cpu[k+1]-cpu[k])/float64(len(l)))
	}
	s.p50, s.p90, s.cpuPerJob = median(p50s), median(p90s), median(cpus)
	return s
}

func runJobsOpen(o options) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	small, err := makePool(rng, poolSize, 8, 8, 1)
	if err != nil {
		return nil, err
	}
	large, err := makePool(rng, poolSize, 32, 32, 4)
	if err != nil {
		return nil, err
	}
	timing := core.FastTiming()
	timing.RealJobLatency = time.Millisecond
	cfg := stackConfig{boards: 2, rps: 2, timing: timing}
	warm := func(st *stack) error {
		// Two rounds over every partition, so each has exchanged its
		// session key before timing starts.
		var arr []arrival
		for i := 0; i < 4*len(st.systems); i++ {
			arr = append(arr, arrival{it: &large[i%len(large)]})
		}
		outs, _ := openLoop(st, arr, nil, time.Millisecond, 1)
		for _, out := range outs {
			if !out.ok {
				return fmt.Errorf("warm-up job failed")
			}
		}
		return nil
	}

	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// Half the window untraced, half traced on a stack with the tap,
		// so the run also measures what tracing costs.
		window /= 2
	}
	b, setupS, err := buildStacks(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer b.close()

	arr := schedule(rng, window, small, large)
	runtime.GC() // the discarded set-up stacks are garbage of the benchmark's own
	outs, cpu := openLoop(b.stack, arr, nil, window, openSubWindows)
	heap := liveHeapMB()
	s := summarize(arr, outs, window, cpu)
	fmt.Printf("jobs-open: sent=%d succeeded=%d failed=%d (mismatched=%d) over %v\n", s.sent, s.ok, s.failed, s.mismatched, s.span)

	r := &report{attempted: s.sent, failed: s.failed, correct: s.mismatched == 0 && s.sent == s.ok+s.failed}
	if !o.traced {
		r.set("op_p50_ms", s.p50, "ms")
		r.set("op_p90_ms", s.p90, "ms")
		r.set("mb_s", s.bytes/1e6/s.span.Seconds(), "MB/s")
		r.set("cpu_ms_per_op", s.cpuPerJob, "ms")
		r.set("heap_mb", heap, "MB")
		r.set("setup_s", setupS, "s")
		fmt.Printf("jobs-open: job_p50_ms=%.4f job_p90_ms=%.4f job_p99_ms=%.4f (n=%d) gen_lag_p99_ms=%.4f fail_frac=%.4g\n",
			s.p50, s.p90, quantile(s.lat, 0.99), len(s.lat), quantile(s.lag, 0.99),
			float64(s.failed)/float64(max(s.sent, 1)))
		return r, nil
	}

	// Traced half.
	tb, err := newTracedStack(cfg, warm)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	tarr := schedule(rng, window, small, large)
	var ts openSummary
	treg, _ := tb.observe(r, func() (float64, float64) {
		touts, tcpu := openLoop(tb.stack, tarr, tb.spans, window, openSubWindows)
		ts = summarize(tarr, touts, window, tcpu)
		return float64(ts.sent), float64(ts.sent)
	})
	fmt.Printf("jobs-open traced: sent=%d succeeded=%d failed=%d (mismatched=%d)\n", ts.sent, ts.ok, ts.failed, ts.mismatched)
	r.attempted += ts.sent
	r.failed += ts.failed
	r.correct = r.correct && ts.mismatched == 0 && ts.sent == ts.ok+ts.failed

	ops := float64(ts.sent)
	callMs := mean(ts.call)
	setLayer(r, "remote.owner_crypto_ms", callMs-treg.meanMs(hCliCall))
	setLayer(r, "remote.job_p99_ms", quantile(ts.lat, 0.99))
	setLayer(r, "remote.job_samples", float64(len(ts.lat)))
	setLayer(r, "core.fabric_wait_ms", ms(timing.RealJobLatency))
	setLayer(r, "bench.gen_lag_p99_ms", quantile(ts.lag, 0.99))
	setLayer(r, "bench.trace_overhead_frac", ts.p50/s.p50-1)
	setLayer(r, "bench.fail_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	setLayer(r, "bench.unexplained_frac", unexplained(r, mean(ts.lat), []pathLayer{
		{"bench generator lag", mean(ts.lag)},
		{"remote owner seal/open", callMs - treg.meanMs(hCliCall)},
		{"rpc wire", treg.meanMs(hCliCall) - treg.meanMs(hSrvHandle)},
		{"gateway handler", treg.meanMs(hSrvHandle) - treg.meanMs(hSchedJob)},
		{"sched admission", treg.meanMs(hSchedJob) - treg.meanMs(hSchedWait) - treg.meanMs(hSchedSvc)},
		{"sched queue wait", treg.meanMs(hSchedWait)},
		{"sched service", treg.meanMs(hSchedSvc) - treg.meanMs(hCoreSealed)},
		{"core job path", treg.meanMs(hCoreSealed) - ms(timing.RealJobLatency)},
		{"fabric wait (modelled)", ms(timing.RealJobLatency)},
	}, treg, map[string]float64{hCliCall: ops, hSrvHandle: ops, hSchedJob: ops, hSchedWait: ops, hSchedSvc: ops, hCoreSealed: ops}))
	if err := finishTrace(r, o, "jobs-open", tb.spans, tb.tap); err != nil {
		return nil, err
	}
	return r, nil
}
