package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"salus/internal/client"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// mRedials counts re-dials after broken transports, process-wide: owner
// sessions toward their gateway and key clients toward their manufacturer.
var mRedials = metrics.Default().Counter("salus_remote_redials_total")

// Redial policy shared by every client in this package: how many
// dial-and-retry rounds one call may burn before surfacing the transport
// error, and the backoff — doubled per round but capped at redialMax, so a
// long outage never grows the wait unboundedly. Variables, not constants,
// so tests can compress the schedule.
var (
	redialAttempts = 4
	redialBase     = 50 * time.Millisecond
	redialMax      = 1 * time.Second
)

// errClosed is returned by every call on a closed client.
var errClosed = errors.New("remote: session closed")

// conn is one logical connection to an RPC server that outlives the TCP
// streams under it. A call that fails with rpc.ErrClosed (which includes
// rpc.ErrBroken) drops the dead client and retries over a fresh dial after
// a capped, Close-cancellable backoff. Every other error — a deliberate
// server rejection, a timeout, an oversized frame — means the transport is
// fine and is returned at once. No lock is held across a call: the rpc
// client multiplexes concurrent calls on one stream.
type conn struct {
	addr string
	done chan struct{} // closed by close; interrupts redial backoff

	mu     sync.Mutex
	c      *rpc.Client
	closed bool
	dials  int
}

// dialConn connects to addr, failing fast if nothing listens there.
func dialConn(addr string) (*conn, error) {
	cn := &conn{addr: addr, done: make(chan struct{})}
	if _, err := cn.client(); err != nil {
		return nil, err
	}
	return cn, nil
}

// client returns the live rpc client, dialing if there is none.
func (cn *conn) client() (*rpc.Client, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return nil, errClosed
	}
	if cn.c == nil {
		c, err := rpc.Dial(cn.addr)
		if err != nil {
			return nil, err
		}
		cn.c = c
		if cn.dials++; cn.dials > 1 {
			mRedials.Inc()
		}
	}
	return cn.c, nil
}

// invalidate drops a dead client so the next call re-dials.
func (cn *conn) invalidate(old *rpc.Client) {
	cn.mu.Lock()
	if cn.c == old {
		old.Close()
		cn.c = nil
	}
	cn.mu.Unlock()
}

// sleep waits out one backoff window, returning false immediately if the
// connection is closed first — a Close during redial must never wait out
// the full backoff.
func (cn *conn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cn.done:
		return false
	}
}

// call performs one RPC under the redial policy.
func (cn *conn) call(method string, params, result any) error {
	backoff := redialBase
	var err error
	for attempt := 0; attempt < redialAttempts; attempt++ {
		if attempt > 0 {
			if !cn.sleep(backoff) {
				return fmt.Errorf("%w during redial backoff", errClosed)
			}
			backoff = min(2*backoff, redialMax)
		}
		var c *rpc.Client
		if c, err = cn.client(); err != nil {
			if errors.Is(err, errClosed) {
				return err
			}
			continue // the server may be coming back
		}
		if err = c.Call(method, params, result); !errors.Is(err, rpc.ErrClosed) {
			return err
		}
		cn.invalidate(c)
	}
	return fmt.Errorf("remote: %s unreachable after %d attempts: %w", cn.addr, redialAttempts, err)
}

// redials reports how many times the connection was re-established.
func (cn *conn) redials() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dials - 1
}

// close releases the connection. A call parked in redial backoff returns
// promptly instead of waiting the window out.
func (cn *conn) close() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if !cn.closed {
		cn.closed = true
		close(cn.done)
	}
	if cn.c == nil {
		return nil
	}
	err := cn.c.Close()
	cn.c = nil
	return err
}

// QoS is a session's per-job quality-of-service contract, attached to
// every RunJob/RunBatch request so the gateway can rate-limit by tenant,
// schedule by class, and shed expired work. Behind a federation front tier
// the tenant is also half of the routing identity.
type QoS struct {
	// Tenant identifies the caller for the gateway's per-tenant token
	// bucket; empty means the anonymous bucket.
	Tenant string
	// Class is the scheduling band (sched.ClassBatch/Standard/Critical).
	Class sched.Class
	// Deadline, when positive, is the per-job relative deadline: the
	// gateway converts it to an absolute deadline at admission.
	Deadline time.Duration
}

// BatchInput is one plaintext job handed to RunBatch.
type BatchInput struct {
	Params [4]uint64
	Input  []byte
}

// BatchResult is one job's opened outcome, index-aligned with the inputs.
type BatchResult struct {
	Output []byte
	Err    error
}

// session is the data owner's protocol with a gateway (§5.2): attest every
// device with one nonce, verify each quote, seal one data key to each
// attested enclave, then send jobs sealed under that key. ClusterSession
// and FederationSession are thin method sets over it.
//
// The session survives transport failures (see conn). That is sound
// because nothing secret lives in the connection: the data key survives
// reconnects, the gateway's Boot and Provision handlers are idempotent,
// and job payloads are sealed end to end — so a dropped TCP stream costs
// latency, never safety.
type session struct {
	cn   *conn
	exps []client.Expectations

	mu         sync.Mutex
	nonce      []byte
	dataKey    []byte
	qos        QoS
	qosSet     bool
	handshakes int
}

func dialSession(addr string, exps []client.Expectations) (*session, error) {
	if len(exps) == 0 {
		return nil, fmt.Errorf("remote: no device expectations")
	}
	cn, err := dialConn(addr)
	if err != nil {
		return nil, fmt.Errorf("remote: gateway: %w", err)
	}
	return &session{cn: cn, exps: exps}, nil
}

// SetQoS attaches a QoS contract to every subsequent RunJob/RunBatch.
// Sessions that never call it send no QoS fields and the gateway applies
// its defaults (ClassStandard, no deadline, anonymous tenant).
func (s *session) SetQoS(q QoS) {
	s.mu.Lock()
	s.qos, s.qosSet = q, true
	s.mu.Unlock()
}

// qosFields renders the session's QoS for a wire request.
func (s *session) qosFields() (tenant, class string, deadlineMillis int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.qosSet {
		return "", "", 0
	}
	return s.qos.Tenant, s.qos.Class.String(), s.qos.Deadline.Milliseconds()
}

// handshake performs one counted owner-handshake RPC.
func (s *session) handshake(method string, params, result any) error {
	s.mu.Lock()
	s.handshakes++
	s.mu.Unlock()
	return s.cn.call(method, params, result)
}

// Attest attests every device behind the gateway with one fresh nonce,
// and — only if all of them verify — provisions one shared data key,
// sealed separately to each device's attested provisioning key.
// All-or-nothing: one bad quote and no device receives the key.
//
// Attest is retry-safe end to end: the nonce is generated once per session
// and reused on retries, matching the gateway's idempotent Boot handler,
// so an Attest that died to a mid-flight connection loss can simply be
// called again.
func (s *session) Attest() error {
	s.mu.Lock()
	if s.nonce == nil {
		s.nonce = client.New(s.exps[0]).NewNonce()
	}
	nonce := s.nonce
	s.mu.Unlock()

	var boot ClusterBootResponse
	if err := s.handshake("Cluster.Boot", ClusterBootRequest{Nonce: nonce}, &boot); err != nil {
		return fmt.Errorf("remote: boot: %w", err)
	}
	if len(boot.Quotes) != len(s.exps) {
		return fmt.Errorf("remote: gateway returned %d quotes for %d expected devices", len(boot.Quotes), len(s.exps))
	}
	dataPubs := make([][]byte, len(boot.Quotes))
	for i, q := range boot.Quotes {
		pub, err := client.New(s.exps[i]).VerifyRAResponse(nonce, q)
		if err != nil {
			return fmt.Errorf("remote: device %d attestation: %w", i, err)
		}
		dataPubs[i] = pub
	}
	key := cryptoutil.RandomKey(16)
	req := ClusterProvisionRequest{Provisions: make([]ProvisionRequest, len(dataPubs))}
	for i, pub := range dataPubs {
		senderPub, sealed, err := client.ProvisionDataKey(pub, key)
		if err != nil {
			return fmt.Errorf("remote: seal key for device %d: %w", i, err)
		}
		req.Provisions[i] = ProvisionRequest{SenderPub: senderPub, Sealed: sealed}
	}
	if err := s.handshake("Cluster.Provision", req, nil); err != nil {
		return fmt.Errorf("remote: provision: %w", err)
	}
	s.mu.Lock()
	s.dataKey = key
	s.mu.Unlock()
	return nil
}

// key returns the provisioned data key, or an error before Attest.
func (s *session) key() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dataKey == nil {
		return nil, fmt.Errorf("remote: session not attested")
	}
	return s.dataKey, nil
}

// runJob seals the input, submits it under the routing key (empty for a
// plain pool), and opens the sealed result. Sealed jobs are pure and
// idempotent, so a job lost to a broken connection is safely re-submitted
// over a fresh one.
func (s *session) runJob(routeKey, kernel string, params [4]uint64, input []byte) ([]byte, FederationPlacement, error) {
	key, err := s.key()
	if err != nil {
		return nil, FederationPlacement{}, err
	}
	sealedIn, err := cryptoutil.Seal(key, input, []byte("job-input"))
	if err != nil {
		return nil, FederationPlacement{}, err
	}
	tenant, class, deadlineMillis := s.qosFields()
	req := JobRequest{
		Kernel: kernel, Params: params, SealedInput: sealedIn,
		Tenant: tenant, Class: class, DeadlineMillis: deadlineMillis, Key: routeKey,
	}
	var resp JobResponse
	if err := s.cn.call("Cluster.RunJob", req, &resp); err != nil {
		return nil, FederationPlacement{}, err
	}
	out, err := cryptoutil.Open(key, resp.SealedOutput, []byte("job-output"))
	if err != nil {
		return nil, FederationPlacement{}, fmt.Errorf("remote: sealed output rejected: %w", err)
	}
	return out, FederationPlacement{Shard: resp.Shard, Spilled: resp.Spilled}, nil
}

// runBatch seals every input and submits the whole batch in one RPC frame
// under the routing key. Jobs succeed or fail individually — the returned
// slice is index-aligned with jobs — while the error covers whole-batch
// failures (unattested session, unreachable gateway, malformed response).
func (s *session) runBatch(routeKey, kernel string, jobs []BatchInput) ([]BatchResult, FederationPlacement, error) {
	key, err := s.key()
	if err != nil {
		return nil, FederationPlacement{}, err
	}
	if len(jobs) == 0 {
		return nil, FederationPlacement{}, nil
	}
	tenant, class, deadlineMillis := s.qosFields()
	req := BatchRequest{
		Kernel: kernel, Jobs: make([]BatchJob, len(jobs)),
		Tenant: tenant, Class: class, DeadlineMillis: deadlineMillis, Key: routeKey,
	}
	for i, j := range jobs {
		sealedIn, err := cryptoutil.Seal(key, j.Input, []byte("job-input"))
		if err != nil {
			return nil, FederationPlacement{}, err
		}
		req.Jobs[i] = BatchJob{Params: j.Params, SealedInput: sealedIn}
	}
	var resp BatchResponse
	if err := s.cn.call("Cluster.RunBatch", req, &resp); err != nil {
		return nil, FederationPlacement{}, err
	}
	if len(resp.Results) != len(jobs) {
		return nil, FederationPlacement{}, fmt.Errorf("remote: gateway returned %d results for %d jobs", len(resp.Results), len(jobs))
	}
	results := make([]BatchResult, len(jobs))
	for i, r := range resp.Results {
		if r.Error != "" {
			results[i].Err = errors.New(r.Error)
			continue
		}
		out, err := cryptoutil.Open(key, r.SealedOutput, []byte("job-output"))
		if err != nil {
			results[i].Err = fmt.Errorf("remote: sealed output rejected: %w", err)
			continue
		}
		results[i].Output = out
	}
	return results, FederationPlacement{Shard: resp.Shard, Spilled: resp.Spilled}, nil
}

// deviceStats fetches the gateway's per-device counters.
func (s *session) deviceStats() ([]sched.DeviceStats, error) {
	var resp ClusterStatsResponse
	if err := s.cn.call("Cluster.Stats", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Devices, nil
}

// Metrics fetches the gateway process's metrics snapshot.
func (s *session) Metrics() (metrics.Snapshot, error) {
	var resp ClusterMetricsResponse
	if err := s.cn.call("Cluster.Metrics", struct{}{}, &resp); err != nil {
		return metrics.Snapshot{}, err
	}
	return resp.Metrics, nil
}

// Redials reports how many times the session re-dialed the gateway after a
// broken transport.
func (s *session) Redials() int { return s.cn.redials() }

// Close releases the session. A call parked in redial backoff returns
// promptly instead of waiting the window out.
func (s *session) Close() error { return s.cn.close() }
