package remote

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/sgx"
)

// --- Cluster gateway ---------------------------------------------------------
//
// One RPC endpoint fronts a pool of FPGA systems behind a sched.Scheduler;
// a single instance is a pool of one. The data owner attests every device
// individually — there is no transitive trust between boards — then
// provisions one shared data key to all of them, after which a sealed job
// runs on whichever device the scheduler picks.

// ClusterBootRequest carries the data owner's RA challenge for the pool.
type ClusterBootRequest struct {
	Nonce []byte `json:"nonce"`
}

// ClusterBootResponse carries one deferred quote per device, in the
// cluster's fixed device order.
type ClusterBootResponse struct {
	Quotes []sgx.Quote `json:"quotes"`
}

// ProvisionRequest carries one device's sealed copy of the data key.
type ProvisionRequest struct {
	SenderPub []byte `json:"sender_pub"`
	Sealed    []byte `json:"sealed"`
}

// ClusterProvisionRequest carries one sealed copy of the shared data key
// per device, in the same order as the boot quotes.
type ClusterProvisionRequest struct {
	Provisions []ProvisionRequest `json:"provisions"`
}

// JobRequest carries one sealed job.
type JobRequest struct {
	Kernel      string    `json:"kernel"`
	Params      [4]uint64 `json:"params"`
	SealedInput []byte    `json:"sealed_input"`
	// QoS fields (see QoS); all optional — empty means
	// anonymous tenant, ClassStandard, no deadline.
	Tenant         string `json:"tenant,omitempty"`
	Class          string `json:"class,omitempty"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
	// Key names the session's data set; a federation front tier routes
	// on tenant + key, a pool gateway ignores it.
	Key string `json:"key,omitempty"`
}

// JobResponse carries the sealed result. Behind a federation front tier
// it also reports the placement the router chose, so clients can observe
// routing and spill-over without trusting extra state.
type JobResponse struct {
	SealedOutput []byte `json:"sealed_output"`
	Shard        string `json:"shard,omitempty"`
	Spilled      bool   `json:"spilled,omitempty"`
}

// BatchJob is one sealed job inside a batch request.
type BatchJob struct {
	Params      [4]uint64 `json:"params"`
	SealedInput []byte    `json:"sealed_input"`
}

// BatchRequest carries a whole batch of sealed jobs for one kernel in a
// single RPC frame — one length prefix, one envelope, one scheduler
// hand-off — instead of one round trip per job. It and the other three
// sealed data-path messages travel in the binary form of wire.go.
type BatchRequest struct {
	Kernel string     `json:"kernel"`
	Jobs   []BatchJob `json:"jobs"`
	// QoS and routing fields; see JobRequest. One contract and one
	// routing decision cover the whole batch.
	Tenant         string `json:"tenant,omitempty"`
	Class          string `json:"class,omitempty"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
	Key            string `json:"key,omitempty"`
}

// BatchJobResult is one job's outcome, index-aligned with the request.
// Jobs fail individually (an oversize input, a device-side rejection)
// without failing their batch-mates.
type BatchJobResult struct {
	SealedOutput []byte `json:"sealed_output,omitempty"`
	Error        string `json:"error,omitempty"`
}

// BatchResponse carries every job's result in request order, plus the
// batch's placement behind a federation front tier.
type BatchResponse struct {
	Results []BatchJobResult `json:"results"`
	Shard   string           `json:"shard,omitempty"`
	Spilled bool             `json:"spilled,omitempty"`
}

// ClusterStatsResponse snapshots the scheduler.
type ClusterStatsResponse struct {
	Devices []sched.DeviceStats `json:"devices"`
}

// ClusterMetricsResponse carries the gateway process's whole metrics
// registry: every counter, gauge, and latency histogram the instrumented
// layers (rpc, sched, fleet, smapp, core) export. `salus-client top` polls
// this alongside Cluster.Stats.
type ClusterMetricsResponse struct {
	Metrics metrics.Snapshot `json:"metrics"`
}

// ServeCluster exposes a pool's boot/provision/job gateway on addr. The
// systems must be freshly constructed (not yet booted); after a successful
// Cluster.Provision they are registered into sch and jobs flow. The gateway
// is untrusted plumbing (it runs outside the enclaves, like the RPC modules
// in Figure 7): the quotes are signed, the key copies are sealed to
// attested enclaves, and the job payloads are AES-GCM under the
// provisioned key.
//
// Boot and Provision are retry-safe: a client whose connection broke
// mid-handshake can re-dial and resend the same request. A replayed Boot
// under the original nonce returns the cached quotes (re-signing the same
// deterministic response leaks nothing); a partially applied Boot or
// Provision resumes from the first unfinished device; a replayed Provision
// returns success without double-registering anything. Only *conflicting*
// replays — a different nonce, a different key material — are refused.
func ServeCluster(systems []*core.System, sch *sched.Scheduler, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	if len(systems) == 0 {
		return nil, "", fmt.Errorf("remote: empty cluster")
	}
	srv := rpc.NewServer()
	handleClusterHandshake(srv, systems, sch.Register)
	handleClusterServing(srv, schedPlane(sch), gatewayAdmission(opts))
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// handleClusterHandshake installs the idempotent Cluster.Boot and
// Cluster.Provision handlers over a fixed initial device order. register is
// called once per device, in order, after the whole pool finished
// provisioning (the scheduler for a plain cluster, fleet adoption for an
// elastic one, root-shard adoption for a federation).
func handleClusterHandshake(srv *rpc.Server, systems []*core.System, register func(*core.System) error) {
	// Handshake state. RPC handlers run concurrently (one goroutine per
	// request), so every mutation of the pool is serialised here.
	var (
		mu         sync.Mutex
		bootNonce  []byte
		bootQuotes []sgx.Quote
		booted     int // devices through BootAndQuote
		provFP     []byte
		provided   int // devices through FinishProvision
		registered int // devices registered into the scheduler
	)

	srv.Handle("Cluster.Boot", rpc.Typed(func(in ClusterBootRequest) (ClusterBootResponse, error) {
		mu.Lock()
		defer mu.Unlock()
		// The nonce arrives over RPC from an unauthenticated caller: a
		// short-circuiting compare would let an attacker probe the real
		// owner's challenge byte by byte through response timing.
		if booted > 0 && !cryptoutil.ConstantTimeEqual(in.Nonce, bootNonce) {
			return ClusterBootResponse{}, fmt.Errorf("cluster already booted under a different nonce")
		}
		if booted == 0 {
			bootNonce = append([]byte(nil), in.Nonce...)
			bootQuotes = make([]sgx.Quote, len(systems))
		}
		for ; booted < len(systems); booted++ {
			q, err := systems[booted].BootAndQuote(in.Nonce)
			if err != nil {
				return ClusterBootResponse{}, fmt.Errorf("device %d (%s): %w", booted, systems[booted].Device.DNA(), err)
			}
			bootQuotes[booted] = q
		}
		return ClusterBootResponse{Quotes: bootQuotes}, nil
	}))
	srv.Handle("Cluster.Provision", rpc.Typed(func(in ClusterProvisionRequest) (struct{}, error) {
		if len(in.Provisions) != len(systems) {
			return struct{}{}, fmt.Errorf("got %d provisions for %d devices", len(in.Provisions), len(systems))
		}
		raw, err := json.Marshal(in)
		if err != nil {
			return struct{}{}, err
		}
		fp := sha256.Sum256(raw)
		mu.Lock()
		defer mu.Unlock()
		// Provision payloads carry sealed key material; the replay
		// fingerprint check must not leak prefix-match length to a caller
		// replaying candidate payloads.
		if provided > 0 && !cryptoutil.ConstantTimeEqual(fp[:], provFP) {
			return struct{}{}, fmt.Errorf("cluster already provisioned with different key material")
		}
		provFP = fp[:]
		for ; provided < len(systems); provided++ {
			p := in.Provisions[provided]
			if err := systems[provided].FinishProvision(p.SenderPub, p.Sealed); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", provided, err)
			}
		}
		// Only a fully provisioned pool joins the scheduler: a device that
		// failed provisioning never sees a job, and a replayed Provision
		// never registers a device twice.
		for ; registered < len(systems); registered++ {
			if err := register(systems[registered]); err != nil {
				return struct{}{}, fmt.Errorf("device %d: %w", registered, err)
			}
		}
		return struct{}{}, nil
	}))
}

// jobPlane is what a gateway's job handlers hand admitted work to: one
// pool's scheduler, or a federation's ring router. The placement is empty
// for a plain pool.
type jobPlane struct {
	submit      func(in JobRequest, opt sched.SubmitOptions) (*sched.Future, FederationPlacement, error)
	submitBatch func(in BatchRequest, jobs []core.SealedJob, opt sched.SubmitOptions) ([]*sched.Future, FederationPlacement, error)
	stats       func() []sched.DeviceStats
}

// schedPlane serves jobs from one pool's scheduler.
func schedPlane(sch *sched.Scheduler) jobPlane {
	return jobPlane{
		submit: func(in JobRequest, opt sched.SubmitOptions) (*sched.Future, FederationPlacement, error) {
			return sch.SubmitSealedOpts(in.Kernel, in.Params, in.SealedInput, opt), FederationPlacement{}, nil
		},
		submitBatch: func(in BatchRequest, jobs []core.SealedJob, opt sched.SubmitOptions) ([]*sched.Future, FederationPlacement, error) {
			return sch.SubmitSealedBatchOpts(in.Kernel, jobs, opt), FederationPlacement{}, nil
		},
		stats: sch.Stats,
	}
}

// admit maps a request's wire QoS fields onto scheduler options and
// screens the request through adm (when non-nil): per-tenant token buckets
// plus the live-p99 overload shed. An unknown class is a deliberate
// rejection, not a default.
func admit(adm *Admission, tenant, class string, deadlineMillis int64, cost int) (sched.SubmitOptions, error) {
	c, ok := sched.ClassByName(class)
	if !ok {
		return sched.SubmitOptions{}, fmt.Errorf("remote: unknown class %q", class)
	}
	opt := sched.SubmitOptions{Class: c}
	if deadlineMillis > 0 {
		opt.Deadline = time.Now().Add(time.Duration(deadlineMillis) * time.Millisecond)
	}
	if adm != nil {
		return opt, adm.Admit(tenant, c, cost)
	}
	return opt, nil
}

// handleClusterServing installs the steady-state job and stats handlers
// over plane, screening every job request through adm first.
func handleClusterServing(srv *rpc.Server, plane jobPlane, adm *Admission) {
	srv.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (JobResponse, error) {
		opt, err := admit(adm, in.Tenant, in.Class, in.DeadlineMillis, 1)
		if err != nil {
			return JobResponse{}, err
		}
		fut, where, err := plane.submit(in, opt)
		if err != nil {
			return JobResponse{}, err
		}
		out, err := fut.Wait()
		if err != nil {
			return JobResponse{}, err
		}
		return JobResponse{SealedOutput: out, Shard: where.Shard, Spilled: where.Spilled}, nil
	}))
	srv.Handle("Cluster.RunBatch", rpc.Typed(func(in BatchRequest) (BatchResponse, error) {
		if len(in.Jobs) == 0 {
			return BatchResponse{}, fmt.Errorf("remote: empty batch")
		}
		opt, err := admit(adm, in.Tenant, in.Class, in.DeadlineMillis, len(in.Jobs))
		if err != nil {
			return BatchResponse{}, err
		}
		jobs := make([]core.SealedJob, len(in.Jobs))
		for i, j := range in.Jobs {
			jobs[i] = core.SealedJob{Params: j.Params, Input: j.SealedInput}
		}
		futs, where, err := plane.submitBatch(in, jobs, opt)
		if err != nil {
			return BatchResponse{}, err
		}
		resp := BatchResponse{Results: make([]BatchJobResult, len(futs)), Shard: where.Shard, Spilled: where.Spilled}
		for i, f := range futs {
			out, err := f.Wait()
			if err != nil {
				resp.Results[i].Error = err.Error()
			} else {
				resp.Results[i].SealedOutput = out
			}
		}
		return resp, nil
	}))
	srv.Handle("Cluster.Stats", rpc.Typed(func(struct{}) (ClusterStatsResponse, error) {
		return ClusterStatsResponse{Devices: plane.stats()}, nil
	}))
	srv.Handle("Cluster.Metrics", rpc.Typed(func(struct{}) (ClusterMetricsResponse, error) {
		return ClusterMetricsResponse{Metrics: metrics.Default().Snapshot()}, nil
	}))
}

// ClusterSession is the data owner's session with a device pool. Each
// device is verified against its own expectations (its own DNA, its own
// RoT-injected bitstream hash); one shared data key is provisioned to all.
// Attest, SetQoS, Metrics, Redials and Close come from the shared session
// core, which also re-dials broken transports (see session).
type ClusterSession struct {
	*session
}

// DialCluster opens a session toward a cluster gateway. exps holds one
// expectation set per device, in the cluster's device order (the CSP
// publishes the order with the DNAs; a mismatch fails attestation, since
// expectations pin each device's DNA).
func DialCluster(addr string, exps []client.Expectations) (*ClusterSession, error) {
	s, err := dialSession(addr, exps)
	if err != nil {
		return nil, err
	}
	return &ClusterSession{s}, nil
}

// RunJob seals the input under the pool's shared data key, submits it to
// the cluster scheduler, and opens the sealed result. Which device ran the
// job is invisible — and irrelevant, since every device was individually
// attested before the key left the owner.
func (s *ClusterSession) RunJob(kernel string, params [4]uint64, input []byte) ([]byte, error) {
	out, _, err := s.runJob("", kernel, params, input)
	return out, err
}

// RunBatch seals every input under the pool's shared data key and submits
// the whole batch in one RPC frame; the cluster runs it through the
// scheduler's batched path (one sealed register program per chunk on the
// device). Results are index-aligned with jobs.
func (s *ClusterSession) RunBatch(kernel string, jobs []BatchInput) ([]BatchResult, error) {
	res, _, err := s.runBatch("", kernel, jobs)
	return res, err
}

// Stats fetches the cluster's per-device counters.
func (s *ClusterSession) Stats() ([]sched.DeviceStats, error) { return s.deviceStats() }
