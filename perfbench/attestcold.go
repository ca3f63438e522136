package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"salus/internal/core"
	"salus/internal/trace"
)

// attest-cold: every operation builds a fresh 2-board × 4-RP fleet with
// DefaultTiming (set-up, untimed), then times DialCluster -> Attest ->
// first RunJob and verifies the result. Only the boot layers run.
const (
	coldBoards = 2
	coldRPs    = 4
	// coldHeapAt is the operation during which the live heap is read,
	// with that operation's fleet still up.
	coldHeapAt = 8
)

// coldRun is one segment of cold attestations.
type coldRun struct {
	ops, failed, mismatched  int
	lat, setup, modelS       []float64 // ms, s, s per op
	dial, attest, firstJob   []float64 // ms per op
	timed                    time.Duration
	cpu                      []float64 // ms of process CPU per timed span
	bytes, heapMB, ratio     float64
	retained, txns, txBytes  float64
	phases                   map[trace.Phase]float64
	keyDist, quoteGen, manip float64
	reg                      regWindow
}

// coldLoop runs cold attestations until the window has elapsed, and
// always at least one.
func coldLoop(pool []item, rng *rand.Rand, window time.Duration, tap *frameTap, spans *spanLog) (coldRun, error) {
	run := coldRun{phases: map[trace.Phase]float64{}, reg: openWindow()}
	cfg := stackConfig{boards: coldBoards, rps: coldRPs, timing: core.DefaultTiming(), tap: tap}
	start := time.Now()
	for run.ops == 0 || time.Since(start) < window {
		it := &pool[rng.Intn(len(pool))]
		s0 := time.Now()
		st, err := newStack(cfg)
		if err != nil {
			return run, err
		}
		run.setup = append(run.setup, time.Since(s0).Seconds())
		m0 := st.modelled()

		cpu0 := cpuTime()
		t0 := time.Now()
		at, err := st.attest()
		var out []byte
		jobStart := time.Now()
		if err == nil {
			out, err = st.sess.RunJob("Conv", it.params, it.input)
		}
		t1 := time.Now()
		ok := err == nil && it.matches(out)
		run.cpu = append(run.cpu, ms(cpuTime()-cpu0))
		run.timed += t1.Sub(t0)

		spans.add(run.ops, "attest-cold", "", t0, t1, ok)
		spans.add(run.ops, "DialCluster", "attest-cold", t0, t0.Add(at.dial), err == nil)
		spans.add(run.ops, "ClusterSession.Attest", "attest-cold", t0.Add(at.dial), t0.Add(at.dial+at.attest), err == nil)
		spans.add(run.ops, "ClusterSession.RunJob", "attest-cold", jobStart, t1, ok)

		run.ops++
		switch {
		case err != nil:
			run.failed++
			run.lat = append(run.lat, math.Inf(1))
			fmt.Printf("attest-cold: op %d failed: %v\n", run.ops, err)
		case !ok:
			run.failed++
			run.mismatched++
			run.lat = append(run.lat, math.Inf(1))
		default:
			run.lat = append(run.lat, ms(t1.Sub(t0)))
			run.bytes += float64(len(it.input))
		}
		run.dial = append(run.dial, ms(at.dial))
		run.attest = append(run.attest, ms(at.attest))
		run.firstJob = append(run.firstJob, ms(t1.Sub(jobStart)))
		run.modelS = append(run.modelS, (st.modelled() - m0).Seconds())
		for p, v := range bootTotals(st.systems) {
			run.phases[p] += v
		}
		kd, qg, mp := bootCounts(st.systems, coldBoards)
		run.keyDist += kd
		run.quoteGen += qg
		run.manip += mp
		run.retained += float64(st.retainedBytes())
		txns, bytes := st.shellTxns()
		run.txns += float64(txns)
		run.txBytes += float64(bytes)
		if run.ops == 1 {
			run.ratio = fig9CrossCheck(st.systems[0])
		}
		if run.ops == coldHeapAt {
			run.heapMB = liveHeapMB()
		}
		st.close()
	}
	run.reg.close()
	if run.ops < coldHeapAt {
		run.heapMB = liveHeapMB()
	}
	return run, nil
}

func runAttestCold(o options) (*report, error) {
	rng := rand.New(rand.NewSource(o.seed))
	pool, err := makePool(rng, poolSize, 32, 32, 4)
	if err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		window /= 2
	}
	run, err := coldLoop(pool, rng, window, nil, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("attest-cold: ops=%d failed=%d (mismatched=%d) attest_wall_ms=%.4f attest_model_s=%.6f\n",
		run.ops, run.failed, run.mismatched, median(run.lat), median(run.modelS))
	r := &report{attempted: run.ops, failed: run.failed, correct: run.mismatched == 0}
	if !o.traced {
		r.set("op_p50_ms", median(run.lat), "ms")
		r.set("op_p90_ms", quantile(run.lat, 0.9), "ms")
		r.set("mb_s", run.bytes/1e6/run.timed.Seconds(), "MB/s")
		r.set("cpu_ms_per_op", median(run.cpu), "ms")
		r.set("heap_mb", run.heapMB, "MB")
		r.set("setup_s", median(run.setup), "s")
		return r, nil
	}

	origin := time.Now()
	tap := newFrameTap(origin)
	spans := newSpanLog(origin)
	trun, err := coldLoop(pool, rng, window, tap, spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("attest-cold traced: ops=%d failed=%d (mismatched=%d)\n", trun.ops, trun.failed, trun.mismatched)
	r.attempted += trun.ops
	r.failed += trun.failed
	r.correct = r.correct && trun.mismatched == 0

	ops := float64(trun.ops)
	rpcLayers(r, trun.reg, ops)
	shellLayers(r, tap.since(origin), ops, trun.txns, trun.txBytes, trun.retained/ops)
	bootLayers(r, trun.phases, trun.modelS, ops, trun.keyDist, trun.quoteGen, trun.manip, trun.reg)
	// Figure 9 cross-check: the boot phases must account for the modelled
	// time charged over the timed spans.
	var phaseSum float64
	for _, v := range trun.phases {
		phaseSum += v
	}
	modelMs := mean(trun.modelS) * 1000
	untraced := (modelMs - phaseSum/ops) / modelMs
	fmt.Printf("attest-cold: boot phases sum to %.3f ms per op of %.3f ms modelled (untraced %.3f ms, %.4f%%)\n",
		phaseSum/ops, modelMs, modelMs-phaseSum/ops, 100*untraced)
	r.require(math.Abs(untraced) <= maxUntraced, "boot phases leave %.4f of attest_model_s unrecorded (limit %.2f)", untraced, maxUntraced)
	setLayer(r, "boot.cold_vs_model_ratio", trun.ratio)
	setLayer(r, "remote.attest_ms", mean(trun.attest))
	setLayer(r, "remote.first_job_ms", mean(trun.firstJob))
	setLayer(r, "remote.job_p99_ms", quantile(trun.lat, 0.99))
	setLayer(r, "remote.job_samples", float64(len(trun.lat)))
	setLayer(r, "bench.trace_overhead_frac", median(trun.lat)/median(run.lat)-1)
	setLayer(r, "bench.fail_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	setLayer(r, "bench.unexplained_frac", unexplained(r, mean(trun.lat), []pathLayer{
		{"DialCluster", mean(trun.dial)},
		{"ClusterSession.Attest", mean(trun.attest)},
		{"first ClusterSession.RunJob", mean(trun.firstJob)},
	}, trun.reg, nil))
	if err := finishTrace(r, o, "attest-cold", spans, tap); err != nil {
		return nil, err
	}
	return r, nil
}
