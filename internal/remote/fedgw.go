package remote

import (
	"fmt"

	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/federation"
	"salus/internal/rpc"
	"salus/internal/sched"
	"salus/internal/sgx"
	"salus/internal/userapp"
)

// --- Federation gateway ------------------------------------------------------
//
// The front tier over N shard gateways: one RPC endpoint routes sealed
// sessions to their home shard on the consistent-hash ring, spills them to
// the least-loaded sibling when the home shard saturates, and brokers the
// enclave-to-enclave data-key hand-off that lets the whole region serve a
// key the owner provisioned exactly once — to the root shard.
//
// Like every gateway in this repo, the front tier is untrusted plumbing:
// the owner handshake is signed quotes and sealed key copies, jobs are
// AES-GCM end to end, and the hand-off messages are local-attestation
// reports plus grants sealed to attested enclave keys. The gateway can
// deny service; it cannot read or forge anything.

// FederationRouteRequest asks where a session lives.
type FederationRouteRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Key    string `json:"key"`
}

// FederationRouteResponse names the session's home shard, its gateway
// address when published, and the routing-table epoch the answer is valid
// for — a client holding a stale epoch should re-route.
type FederationRouteResponse struct {
	Shard string `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	Epoch uint64 `json:"epoch"`
}

// HandoffRequest is a recipient enclave's local-attestation key request
// relayed to this federation (core.System.BeginAdoptDataKey wire form).
// The report pins the recipient's measurement and binds its ephemeral
// public key into the report data, so the relaying hosts cannot swap
// either.
type HandoffRequest struct {
	Report       sgx.Report `json:"report"`
	RecipientPub []byte     `json:"recipient_pub"`
}

// HandoffGrant is the donor enclave's answer: the region's data key sealed
// under a one-pass ECDH channel toward the attested recipient key
// (userapp.KeyGrant wire form, fed to core.System.FinishAdoptDataKey).
type HandoffGrant struct {
	SenderPub []byte `json:"sender_pub"`
	Sealed    []byte `json:"sealed"`
}

// FederationStatsResponse snapshots the front tier.
type FederationStatsResponse struct {
	Stats federation.Stats `json:"stats"`
}

// ServeFederation exposes a federation's front tier on addr.
//
// The front tier speaks the cluster gateway's owner vocabulary. Its
// Cluster.Boot / Cluster.Provision run the same idempotent handshake, but
// against the ROOT shard's systems only — the region-scoped attestation
// property: the owner attests and provisions O(root shard) devices, and
// every other shard in the region is keyed enclave-to-enclave via
// Federation.Handoff or the in-process hand-off, with zero further owner
// round trips. Cluster.RunJob / RunBatch route on the request's tenant and
// key and report the placement; Cluster.Stats and Cluster.Metrics cover
// the whole region, so `salus-client` and `salus-client top` can point at
// a front tier unchanged. Federation.Route, Federation.Handoff and
// Federation.Stats serve what only a federation has.
func ServeFederation(fed *federation.Federation, root []*core.System, addr string, opts ...GatewayOption) (*rpc.Server, string, error) {
	if fed == nil {
		return nil, "", fmt.Errorf("remote: nil federation")
	}
	if len(root) == 0 {
		return nil, "", fmt.Errorf("remote: empty root shard")
	}
	rootMgr := fed.Manager(fed.Root())
	if rootMgr == nil {
		return nil, "", fmt.Errorf("remote: federation has no root shard")
	}
	srv := rpc.NewServer()

	// Each provisioned root system is adopted into the root manager, in
	// order; once the last one is through, the root is marked keyed and
	// becomes the region's hand-off donor anchor.
	handleClusterHandshake(srv, root, func(sys *core.System) error {
		if err := rootMgr.Adopt(sys); err != nil {
			return err
		}
		if sys == root[len(root)-1] {
			fed.MarkRootKeyed()
		}
		return nil
	})
	handleClusterServing(srv, jobPlane{
		submit: func(in JobRequest, opt sched.SubmitOptions) (*sched.Future, FederationPlacement, error) {
			res, err := fed.Submit(in.Tenant, in.Key, in.Kernel, in.Params, in.SealedInput, opt)
			return res.Future, FederationPlacement{Shard: res.Shard, Spilled: res.Spilled}, err
		},
		submitBatch: func(in BatchRequest, jobs []core.SealedJob, opt sched.SubmitOptions) ([]*sched.Future, FederationPlacement, error) {
			futs, shard, spilled, err := fed.SubmitBatch(in.Tenant, in.Key, in.Kernel, jobs, opt)
			return futs, FederationPlacement{Shard: shard, Spilled: spilled}, err
		},
		stats: fed.AllDeviceStats,
	}, gatewayAdmission(opts))

	srv.Handle("Federation.Route", rpc.Typed(func(in FederationRouteRequest) (FederationRouteResponse, error) {
		id, shardAddr, epoch, err := fed.Route(in.Tenant, in.Key)
		if err != nil {
			return FederationRouteResponse{}, err
		}
		return FederationRouteResponse{Shard: id, Addr: shardAddr, Epoch: epoch}, nil
	}))
	srv.Handle("Federation.Handoff", rpc.Typed(func(in HandoffRequest) (HandoffGrant, error) {
		grant, err := fed.Grant(userapp.KeyRequest{Report: in.Report, RecipientPub: in.RecipientPub})
		if err != nil {
			return HandoffGrant{}, err
		}
		return HandoffGrant{SenderPub: grant.SenderPub, Sealed: grant.Sealed}, nil
	}))
	srv.Handle("Federation.Stats", rpc.Typed(func(struct{}) (FederationStatsResponse, error) {
		return FederationStatsResponse{Stats: fed.Stats()}, nil
	}))

	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// FederationPlacement reports where one request landed.
type FederationPlacement struct {
	Shard   string
	Spilled bool
}

// FederationSession is a data owner's (or client's) session with a
// federation front tier: the shared session core (Attest, SetQoS, Metrics,
// Redials, Close, and the redial policy) plus routing. One session carries
// one tenant identity (its QoS tenant); the owner attests the root shard's
// devices once, provisions the key once, and then addresses work purely by
// session key — the ring places it, spill-over moves it, and the hand-off
// keys new shards, all without the session's involvement.
type FederationSession struct {
	*session
}

// DialFederation opens a session toward a federation front tier. exps
// holds one expectation set per ROOT-shard device, in the root's device
// order — the only devices the owner ever verifies.
func DialFederation(addr string, exps []client.Expectations) (*FederationSession, error) {
	s, err := dialSession(addr, exps)
	if err != nil {
		return nil, err
	}
	return &FederationSession{s}, nil
}

// HandshakeCalls reports the owner's total attestation-path round trips —
// Boot plus Provision. The region-scoped attestation acceptance check:
// this stays at 2 while shards join, spill, and get keyed, and across
// front-tier restarts.
func (s *FederationSession) HandshakeCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handshakes
}

// Route asks the front tier where a session key lives right now.
func (s *FederationSession) Route(key string) (FederationRouteResponse, error) {
	tenant, _, _ := s.qosFields()
	var resp FederationRouteResponse
	err := s.cn.call("Federation.Route", FederationRouteRequest{Tenant: tenant, Key: key}, &resp)
	return resp, err
}

// RunJob seals the input under the region's data key and submits it under
// the session key; the front tier places it. Returns the opened output and
// the placement the router reported.
func (s *FederationSession) RunJob(key, kernel string, params [4]uint64, input []byte) ([]byte, FederationPlacement, error) {
	return s.runJob(key, kernel, params, input)
}

// RunBatch seals every input and submits the batch under one session key —
// one routing decision, one frame. Results are index-aligned with jobs.
func (s *FederationSession) RunBatch(key, kernel string, jobs []BatchInput) ([]BatchResult, FederationPlacement, error) {
	return s.runBatch(key, kernel, jobs)
}

// Stats fetches the federation-wide routing and shard snapshot.
func (s *FederationSession) Stats() (federation.Stats, error) {
	var resp FederationStatsResponse
	if err := s.cn.call("Federation.Stats", struct{}{}, &resp); err != nil {
		return federation.Stats{}, err
	}
	return resp.Stats, nil
}

// DeviceStats fetches per-device counters across every shard in the region.
func (s *FederationSession) DeviceStats() ([]sched.DeviceStats, error) { return s.deviceStats() }
