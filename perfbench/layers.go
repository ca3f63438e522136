package main

import (
	"fmt"
	"math"
	"strconv"

	"salus/internal/core"
	"salus/internal/perfmodel"
	"salus/internal/sched"
	"salus/internal/trace"
)

// layerUnits lists every per-layer metric a traced run reports, on every
// workload; a layer the workload does not exercise reads 0. README.md maps
// each to the end-to-end metric it should move.
var layerUnits = map[string]string{
	"remote.owner_crypto_ms":     "ms",
	"remote.attest_ms":           "ms",
	"remote.first_job_ms":        "ms",
	"remote.redials":             "count",
	"remote.job_p99_ms":          "ms",
	"remote.job_samples":         "count",
	"rpc.wire_ms":                "ms",
	"rpc.bytes_per_op":           "B",
	"rpc.errors":                 "count",
	"sched.wait_ms":              "ms",
	"sched.service_ms":           "ms",
	"sched.busiest_share":        "fraction",
	"sched.rejected":             "count",
	"core.job_ms":                "ms",
	"core.batch_ms":              "ms",
	"core.exchanges_per_1k_jobs": "count",
	"core.fabric_wait_ms":        "ms",
	"shell.txns_per_op":          "count",
	"shell.bytes_per_op":         "B",
	"shell.retained_mb":          "MB",
	"boot.model_s":               "s",
	"boot.untraced_ms":           "ms",
	"boot.key_dist_per_die":      "count",
	"boot.sm_quote_gen_per_die":  "count",
	"boot.manip_per_die":         "count",
	"boot.cold_vs_model_ratio":   "ratio",
	"smapp.manip_hit_frac":       "fraction",
	"smapp.enc_hit_frac":         "fraction",
	"smapp.quote_reuse_frac":     "fraction",
	"bench.gen_lag_p99_ms":       "ms",
	"bench.trace_overhead_frac":  "fraction",
	"bench.unexplained_frac":     "fraction",
	"bench.fail_frac":            "fraction",
}

// shellReqTypes are the host->CL request frames counted per operation;
// shellFrameTypes add the CL->host responses and bitstream loads for the
// byte split.
var (
	shellReqTypes   = []string{"attest_req", "secure_reg", "direct_reg", "mem_write", "mem_read", "rekey", "secure_reg_batch"}
	shellFrameTypes = []string{"attest_req", "attest_resp", "secure_reg", "secure_reg_resp", "direct_reg", "direct_resp",
		"mem_write", "mem_read", "mem_data", "rekey", "rekey_resp", "secure_reg_batch", "secure_reg_batch_resp", "bitstream"}
)

// bootPhases are the Figure 9 phases the remote owner path records, with
// their metric names. The owner verifies the user enclave's quote off the
// platform, so "User Enclv. Quote Verif." and "User RA" are never
// recorded on this path.
var bootPhases = []struct {
	phase trace.Phase
	name  string
}{
	{trace.PhaseSMQuoteGen, "boot.sm_quote_gen_ms"},
	{trace.PhaseSMQuoteVerify, "boot.sm_quote_verify_ms"},
	{trace.PhaseKeyDistribution, "boot.key_dist_ms"},
	{trace.PhaseBitVerifyEnc, "boot.bit_verify_enc_ms"},
	{trace.PhaseBitManipulation, "boot.bit_manip_ms"},
	{trace.PhaseCLDeployment, "boot.cl_deploy_ms"},
	{trace.PhaseCLAuth, "boot.cl_auth_ms"},
	{trace.PhaseUserQuoteGen, "boot.user_quote_gen_ms"},
	{trace.PhaseLocalAttest, "boot.local_attest_ms"},
	{trace.PhaseNetwork, "boot.network_ms"},
}

func init() {
	for _, t := range shellReqTypes {
		layerUnits["shell.txns_per_op."+t] = "count"
	}
	for _, t := range shellFrameTypes {
		layerUnits["shell.bytes_per_op."+t] = "B"
	}
	for _, p := range bootPhases {
		layerUnits[p.name] = "ms"
	}
}

// fillLayers gives every per-layer metric the workload did not set the
// value 0, so all workloads report one set of names.
func fillLayers(r *report) {
	for name, unit := range layerUnits {
		if _, ok := r.metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}

// setLayer records a per-layer metric under its registered unit.
func setLayer(r *report, name string, v float64) { r.set(name, v, layerUnits[name]) }

// rpcLayers reports the transport layer over a window of ops operations.
// wire time is the owner's rpc client call minus the gateway's handling of
// it, so it covers framing, JSON/base64 coding and the loopback socket.
func rpcLayers(r *report, w regWindow, ops float64) {
	setLayer(r, "rpc.wire_ms", w.meanMs(hCliCall)-w.meanMs(hSrvHandle))
	setLayer(r, "rpc.bytes_per_op", (w.counter("salus_rpc_client_tx_bytes_total")+w.counter("salus_rpc_client_rx_bytes_total"))/ops)
	setLayer(r, "rpc.errors", w.counter("salus_rpc_server_errors_total")+
		w.counter("salus_rpc_client_timeouts_total")+w.counter("salus_rpc_client_broken_total"))
	setLayer(r, "remote.redials", w.counter("salus_remote_redials_total"))
}

// schedLayers reports the scheduler and core job path over a window in
// which jobs jobs completed; before and after are Scheduler.Stats rows.
func schedLayers(r *report, w regWindow, jobs float64, before, after []sched.DeviceStats) {
	setLayer(r, "sched.wait_ms", w.meanMs(hSchedWait))
	setLayer(r, "sched.service_ms", w.meanMs(hSchedSvc))
	setLayer(r, "sched.rejected", w.counter("salus_sched_overloaded_total")+w.counter("salus_sched_deadline_shed_total")+
		w.counter("salus_sched_failed_total")+w.counter("salus_sched_redispatched_total"))
	setLayer(r, "sched.busiest_share", busiestShare(before, after))
	setLayer(r, "core.job_ms", w.meanMs(hCoreSealed))
	setLayer(r, "core.batch_ms", w.meanMs(hCoreBatch))
	if jobs > 0 {
		setLayer(r, "core.exchanges_per_1k_jobs", 1000*w.counter("salus_session_exchanges_total")/jobs)
	}
}

// busiestShare is the busiest partition's share of the jobs completed
// between two Scheduler.Stats snapshots.
func busiestShare(before, after []sched.DeviceStats) float64 {
	prev := make(map[string]uint64, len(before))
	for _, d := range before {
		prev[string(d.DNA)+"/"+strconv.Itoa(d.RP)] = d.Completed
	}
	var total, busiest uint64
	for _, d := range after {
		n := d.Completed - prev[string(d.DNA)+"/"+strconv.Itoa(d.RP)]
		total += n
		busiest = max(busiest, n)
	}
	if total == 0 {
		return 0
	}
	return float64(busiest) / float64(total)
}

// shellLayers reports the shell: round trips and payload bytes per
// operation from Shell.Stats differences, the split by message type from
// the pass-through tap, and the transcript payload the shells retain.
func shellLayers(r *report, frames []frameEvent, ops, txns, bytes, retained float64) {
	setLayer(r, "shell.txns_per_op", txns/ops)
	setLayer(r, "shell.bytes_per_op", bytes/ops)
	setLayer(r, "shell.retained_mb", retained/1e6)
	count := map[string]float64{}
	size := map[string]float64{}
	for _, e := range frames {
		if e.Dir == "req" {
			count[e.Type]++
		}
		size[e.Type] += float64(e.Bytes)
	}
	for _, t := range shellReqTypes {
		setLayer(r, "shell.txns_per_op."+t, count[t]/ops)
	}
	for _, t := range shellFrameTypes {
		setLayer(r, "shell.bytes_per_op."+t, size[t]/ops)
	}
}

// bootTotals sums every recorded phase over a pool's partitions.
func bootTotals(systems []*core.System) map[trace.Phase]float64 {
	out := map[trace.Phase]float64{}
	for _, sys := range systems {
		for _, s := range sys.Trace.Samples() {
			out[s.Phase] += ms(s.D)
		}
	}
	return out
}

// bootCounts reports trace samples per die for the three phases the
// "fetch once per die" work targets.
func bootCounts(systems []*core.System, boards int) (keyDist, quoteGen, manip float64) {
	for _, sys := range systems {
		keyDist += float64(sys.Trace.Count(trace.PhaseKeyDistribution))
		quoteGen += float64(sys.Trace.Count(trace.PhaseSMQuoteGen))
		manip += float64(sys.Trace.Count(trace.PhaseBitManipulation))
	}
	b := float64(boards)
	return keyDist / b, quoteGen / b, manip / b
}

// bootLayers reports the boot layers over ops boots of whole pools:
// phases (summed over the pool, mean per boot), the modelled time charged
// to the partitions' clocks (median per boot), the part of it no phase
// recorded, per-die counts and the boot cache hit rates.
func bootLayers(r *report, phases map[trace.Phase]float64, modelS []float64, ops float64,
	keyDist, quoteGen, manip float64, w regWindow) {
	var phaseSum float64
	for _, p := range bootPhases {
		setLayer(r, p.name, phases[p.phase]/ops)
	}
	for _, v := range phases {
		phaseSum += v
	}
	setLayer(r, "boot.model_s", median(modelS))
	setLayer(r, "boot.untraced_ms", mean(modelS)*1000-phaseSum/ops)
	setLayer(r, "boot.key_dist_per_die", keyDist/ops)
	setLayer(r, "boot.sm_quote_gen_per_die", quoteGen/ops)
	setLayer(r, "boot.manip_per_die", manip/ops)
	frac := func(hits, total string) float64 {
		if t := w.counter(total) + w.counter(hits); t > 0 {
			return w.counter(hits) / t
		}
		return 0
	}
	setLayer(r, "smapp.manip_hit_frac", frac("salus_smapp_manip_hits_total", "salus_smapp_manip_total"))
	setLayer(r, "smapp.enc_hit_frac", frac("salus_smapp_enc_hits_total", "salus_smapp_enc_total"))
	setLayer(r, "smapp.quote_reuse_frac", frac("salus_smapp_quote_reused_total", "salus_smapp_quote_generated_total"))
}

// fig9Segments map each perfmodel.BootModel segment onto the recorded phases
// that make it up on the remote owner path.
var fig9Segments = []struct {
	name   string
	phases []trace.Phase
}{
	{"Bitstream Manipulation", []trace.Phase{trace.PhaseBitManipulation}},
	{"User RA", []trace.Phase{trace.PhaseUserQuoteGen, trace.PhaseNetwork}},
	{"Device Key Dist.", []trace.Phase{trace.PhaseSMQuoteGen, trace.PhaseSMQuoteVerify, trace.PhaseKeyDistribution}},
	{"Bitstream Verif. & Enc.", []trace.Phase{trace.PhaseBitVerifyEnc}},
	{"CL Deployment", []trace.Phase{trace.PhaseCLDeployment}},
	{"CL Authentication", []trace.Phase{trace.PhaseCLAuth}},
	{"Local Attestation", []trace.Phase{trace.PhaseLocalAttest}},
}

// fig9CrossCheck prints the first (cold) partition's modelled phases next
// to perfmodel.DefaultBootModel for the same bitstream size, and returns
// the ratio of their totals. The analytic model is not validated against
// hardware; the comparison only shows whether simulation and model agree.
func fig9CrossCheck(cold *core.System) float64 {
	model := perfmodel.DefaultBootModel(len(cold.Package.Encoded))
	seg := map[string]float64{}
	for _, s := range model.Breakdown() {
		seg[s.Name] = ms(s.D)
	}
	fmt.Printf("Figure 9 cross-check, cold partition vs perfmodel.DefaultBootModel(%d B) [model unvalidated against hardware]\n",
		len(cold.Package.Encoded))
	var measured float64
	for _, sg := range fig9Segments {
		var v float64
		for _, p := range sg.phases {
			v += ms(cold.Trace.PhaseTotal(p))
		}
		measured += v
		fmt.Printf("  %-26s simulated %10.3f ms   model %10.3f ms\n", sg.name, v, seg[sg.name])
	}
	total := ms(model.Total())
	fmt.Printf("  %-26s simulated %10.3f ms   model %10.3f ms\n", "total", measured, total)
	return measured / total
}

// pathLayer is one layer's self time on the job path: its span's mean
// duration minus the part its child layer covers.
type pathLayer struct {
	name   string
	selfMs float64
}

// Limits of the traced runs' consistency checks.
const (
	maxUnexplained = 0.05 // share of mean e2e latency the job-path layers may leave unaccounted
	maxUntraced    = 0.01 // share of attest_model_s no boot phase may record
)

// unexplained prints the job-path breakdown and returns the share of the
// mean end-to-end latency the layers' self times leave unaccounted for.
// Self times telescope, so the residual is non-zero only where a child
// outlasts its parent (a negative self time, clipped to zero here). A
// layer's series covering other work than the benchmark's spans shows as
// a count that differs from want, which fails the run.
func unexplained(r *report, e2eMs float64, layers []pathLayer, w regWindow, want map[string]float64) float64 {
	var sum float64
	fmt.Printf("path breakdown, mean self time per operation (e2e %.4f ms):\n", e2eMs)
	for _, l := range layers {
		fmt.Printf("  %-26s %10.4f ms\n", l.name, l.selfMs)
		sum += math.Max(l.selfMs, 0)
	}
	for name, n := range want {
		got := w.hcount(name)
		r.require(got == n, "%s observed %.0f times in the window, the benchmark made %.0f calls", name, got, n)
	}
	if e2eMs <= 0 {
		return 0
	}
	frac := math.Abs(e2eMs-sum) / e2eMs
	r.require(frac <= maxUnexplained, "job-path layers leave %.4f of the mean e2e latency unexplained (limit %.2f)", frac, maxUnexplained)
	return frac
}

// setupBootLayers reports the boot layers of a stack's own set-up boot,
// the only boot a serving workload performs.
func setupBootLayers(r *report, b *builtStack) {
	setLayer(r, "remote.attest_ms", ms(b.attest.attest))
	boards := len(b.mgr.Members())
	kd, qg, mp := bootCounts(b.systems, boards)
	bootLayers(r, bootTotals(b.systems), []float64{b.modelled.Seconds()}, 1, kd, qg, mp, b.boot)
}
