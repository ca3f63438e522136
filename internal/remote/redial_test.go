package remote

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"salus/internal/accel"
	"salus/internal/cryptoutil"
	"salus/internal/federation"
	"salus/internal/manufacturer"
	"salus/internal/rpc"
	"salus/internal/sched"
)

// One redial suite for every client in the package: the owner sessions
// toward a pool gateway and a federation front tier share one session
// core, and the manufacturer key client shares its redial policy, so each
// behaviour below is pinned once per client type.

// setRedialSchedule compresses (or stretches) the shared redial policy
// for one test and restores it afterwards.
func setRedialSchedule(t *testing.T, attempts int, base, max time.Duration) {
	t.Helper()
	oldA, oldB, oldM := redialAttempts, redialBase, redialMax
	redialAttempts, redialBase, redialMax = attempts, base, max
	t.Cleanup(func() {
		redialAttempts, redialBase, redialMax = oldA, oldB, oldM
	})
}

// redialFixture is one live client with its server.
type redialFixture struct {
	addr  string
	call  func() error // one RPC through the client under test
	close func() error // closes the client
	kill  func()       // stops the server
	serve func() (*rpc.Server, error)
	// Owner sessions only: the attested core and a sealed job under it.
	sess   *session
	runJob func(w accel.Workload) ([]byte, error)
}

// restart rebinds the real server on the fixture's address, retrying
// briefly while the OS releases the port.
func (fx *redialFixture) restart(t *testing.T) {
	t.Helper()
	fx.kill()
	srv := rebind(t, fx.addr, fx.serve)
	t.Cleanup(func() { srv.Close() })
}

// rebind serves on addr, retrying within a deadline.
func rebind(t *testing.T, addr string, serve func() (*rpc.Server, error)) *rpc.Server {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv, err := serve()
		if err == nil {
			return srv
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		//lint:allow test-sleep poll interval inside a deadline-bounded rebind loop; the sleep only paces rebind attempts
		time.Sleep(20 * time.Millisecond)
	}
}

// redialClient names one client type and builds its fixture.
type redialClient struct {
	name  string
	build func(t *testing.T) *redialFixture
}

var (
	clusterClient = redialClient{"cluster", func(t *testing.T) *redialFixture {
		d := newClusterDeployment(t, 2, accel.Conv{})
		sess, err := DialCluster(d.addr, d.expectations())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		if err := sess.Attest(); err != nil {
			t.Fatal(err)
		}
		return &redialFixture{
			addr:  d.addr,
			call:  func() error { _, err := sess.Stats(); return err },
			close: sess.Close,
			kill:  func() { d.srv.Close() },
			serve: func() (*rpc.Server, error) {
				srv, _, err := ServeCluster(d.systems, d.sch, d.addr)
				return srv, err
			},
			sess: sess.session,
			runJob: func(w accel.Workload) ([]byte, error) {
				return sess.RunJob("Conv", w.Params, w.Input)
			},
		}
	}}
	federationClient = redialClient{"federation", func(t *testing.T) *redialFixture {
		d, srv, sess, addr := dialFederationDeployment(t, federation.LocalSpec{
			Shards: 2, DevicesPerShard: 1,
			Federation: federation.Config{SpillHighWater: 1e9},
		})
		return &redialFixture{
			addr:  addr,
			call:  func() error { _, err := sess.Stats(); return err },
			close: sess.Close,
			kill:  func() { srv.Close() },
			serve: func() (*rpc.Server, error) {
				srv, _, err := ServeFederation(d.Fed, d.RootSystems, addr)
				return srv, err
			},
			sess: sess.session,
			runJob: func(w accel.Workload) ([]byte, error) {
				out, _, err := sess.RunJob("dataset", "Conv", w.Params, w.Input)
				return out, err
			},
		}
	}}
	keyClient = redialClient{"manufacturer", func(t *testing.T) *redialFixture {
		mfr, err := manufacturer.New()
		if err != nil {
			t.Fatal(err)
		}
		srv, addr, err := ServeManufacturer(mfr, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		kc, err := DialManufacturer(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { kc.Close() })
		return &redialFixture{
			addr:  addr,
			call:  func() error { _, err := kc.Root(); return err },
			close: kc.Close,
			kill:  func() { srv.Close() },
			serve: func() (*rpc.Server, error) {
				srv, _, err := ServeManufacturer(mfr, addr)
				return srv, err
			},
		}
	}}
	ownerSessions = []redialClient{clusterClient, federationClient}
	allClients    = []redialClient{clusterClient, federationClient, keyClient}
)

// TestClusterSessionSurvivesGatewayRestart: the gateway restarts on the
// same address (rolling deploy); the session's connection is poisoned with
// rpc.ErrBroken but the next call re-dials and succeeds. The data key
// survives the reconnect — no re-attestation is needed, because nothing
// secret lives in the connection.
func TestClusterSessionSurvivesGatewayRestart(t *testing.T) {
	for _, rc := range ownerSessions {
		t.Run(rc.name, func(t *testing.T) {
			fx := rc.build(t)
			w := accel.GenConv(4, 4, 1, 21)
			want, err := w.Kernel.Compute(w.Params, w.Input)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := fx.runJob(w); err != nil || !bytes.Equal(out, want) {
				t.Fatalf("job before restart: %v", err)
			}
			fx.restart(t)
			out, err := fx.runJob(w)
			if err != nil {
				t.Fatalf("job after restart: %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Error("post-restart job output diverges from reference")
			}
			if n := fx.sess.Redials(); n < 1 {
				t.Errorf("Redials() = %d, want >= 1 after a gateway restart", n)
			}
		})
	}
}

// TestFederationSessionSurvivesFrontTierRestart: a front-tier restart
// costs a federated owner one redial, never a second attestation — the
// region keeps the data key, the session keeps its copy, and the next job
// routes and opens as before.
func TestFederationSessionSurvivesFrontTierRestart(t *testing.T) {
	d, srv, sess, addr := dialFederationDeployment(t, federation.LocalSpec{
		Shards: 3, DevicesPerShard: 1,
		Federation: federation.Config{SpillHighWater: 1e9},
	})
	w := accel.GenConv(4, 4, 1, 31)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.RunJob("ledger", "Conv", w.Params, w.Input); err != nil {
		t.Fatalf("job before restart: %v", err)
	}
	srv.Close()
	srv2 := rebind(t, addr, func() (*rpc.Server, error) {
		srv, _, err := ServeFederation(d.Fed, d.RootSystems, addr)
		return srv, err
	})
	defer srv2.Close()

	out, placement, err := sess.RunJob("ledger", "Conv", w.Params, w.Input)
	if err != nil {
		t.Fatalf("job after front-tier restart: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Error("post-restart job output diverges from reference")
	}
	if placement.Shard == "" {
		t.Error("post-restart job reported no placement")
	}
	if got := sess.HandshakeCalls(); got != 2 {
		t.Errorf("owner handshake calls = %d after a front-tier restart, want 2", got)
	}
	if sess.Redials() < 1 {
		t.Errorf("Redials() = %d, want >= 1", sess.Redials())
	}
}

// TestClusterSessionQoSSurvivesRedial is the regression guard for the QoS
// contract across transport failures: a session that set tenant, class,
// and deadline must attach the SAME fields to requests sent over a
// re-dialed connection after rpc.ErrBroken. The contract lives in session
// state, not connection state (qosFields renders it per request), and this
// test pins that down at the wire: the gateway is restarted as a stub that
// captures the raw JobRequest the redial delivers.
func TestClusterSessionQoSSurvivesRedial(t *testing.T) {
	for _, rc := range ownerSessions {
		t.Run(rc.name, func(t *testing.T) {
			fx := rc.build(t)
			want := QoS{Tenant: "tenant-qos", Class: sched.ClassCritical, Deadline: 1500 * time.Millisecond}
			fx.sess.SetQoS(want)
			w := accel.GenConv(4, 4, 1, 5)
			ref, err := w.Kernel.Compute(w.Params, w.Input)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := fx.runJob(w); err != nil || !bytes.Equal(out, ref) {
				t.Fatalf("job before restart: %v", err)
			}

			// Restart the gateway as a capture stub on the same address: it
			// records the JobRequest exactly as the redialed connection
			// delivers it and answers with a validly sealed echo of the
			// reference output.
			key, err := fx.sess.key()
			if err != nil {
				t.Fatal(err)
			}
			fx.kill()
			var (
				mu       sync.Mutex
				captured []JobRequest
			)
			stub := rebind(t, fx.addr, func() (*rpc.Server, error) {
				stub := rpc.NewServer()
				stub.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (JobResponse, error) {
					mu.Lock()
					captured = append(captured, in)
					mu.Unlock()
					sealedOut, err := cryptoutil.Seal(key, ref, []byte("job-output"))
					return JobResponse{SealedOutput: sealedOut}, err
				}))
				_, err := stub.Listen(fx.addr)
				return stub, err
			})
			defer stub.Close()

			out, err := fx.runJob(w)
			if err != nil {
				t.Fatalf("job after restart: %v", err)
			}
			if !bytes.Equal(out, ref) {
				t.Error("post-restart job output diverges")
			}
			if fx.sess.Redials() < 1 {
				t.Fatalf("Redials() = %d, want >= 1: the stub never saw a redialed request", fx.sess.Redials())
			}
			mu.Lock()
			defer mu.Unlock()
			if len(captured) == 0 {
				t.Fatal("stub gateway captured no requests")
			}
			got := captured[len(captured)-1]
			if got.Tenant != want.Tenant {
				t.Errorf("redialed request tenant = %q, want %q", got.Tenant, want.Tenant)
			}
			if got.Class != want.Class.String() {
				t.Errorf("redialed request class = %q, want %q", got.Class, want.Class.String())
			}
			if got.DeadlineMillis != want.Deadline.Milliseconds() {
				t.Errorf("redialed request deadline_ms = %d, want %d", got.DeadlineMillis, want.Deadline.Milliseconds())
			}
		})
	}
}

// TestClusterRedialBackoffCapped: against a server that never comes back,
// the redial backoff must stop doubling at the cap — six attempts at base
// 20 ms spend ~180 ms capped vs ~620 ms uncapped.
func TestClusterRedialBackoffCapped(t *testing.T) {
	for _, rc := range allClients {
		t.Run(rc.name, func(t *testing.T) {
			fx := rc.build(t)
			setRedialSchedule(t, 6, 20*time.Millisecond, 40*time.Millisecond)
			fx.kill() // the server dies and never recovers

			start := time.Now()
			err := fx.call()
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("call succeeded against a dead server")
			}
			if !strings.Contains(err.Error(), "unreachable") {
				t.Fatalf("unexpected verdict: %v", err)
			}
			// Capped schedule: 20+40+40+40+40 = 180 ms of backoff. Uncapped
			// doubling would need 620 ms before the dial overhead.
			if elapsed > 450*time.Millisecond {
				t.Fatalf("redial rounds took %v — backoff is not capped", elapsed)
			}
		})
	}
}

// TestClusterRedialCancelledByClose: a Close during redial backoff must
// interrupt the wait immediately, never sleep the full window out.
func TestClusterRedialCancelledByClose(t *testing.T) {
	for _, rc := range allClients {
		t.Run(rc.name, func(t *testing.T) {
			fx := rc.build(t)
			setRedialSchedule(t, 4, 2*time.Second, 2*time.Second)
			fx.kill()

			errc := make(chan error, 1)
			go func() { errc <- fx.call() }()
			// Let the call fail its first attempt and park in the 2 s
			// backoff, then close the client underneath it.
			//lint:allow test-sleep generous margin for the call to fail its first attempt and park in the 2 s redial backoff being cancelled
			time.Sleep(100 * time.Millisecond)
			closeAt := time.Now()
			fx.close()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("call succeeded against a dead server")
				}
				if !strings.Contains(err.Error(), "closed") {
					t.Fatalf("unexpected verdict after Close: %v", err)
				}
				if waited := time.Since(closeAt); waited > 500*time.Millisecond {
					t.Fatalf("call returned %v after Close — backoff was not cancellable", waited)
				}
			case <-time.After(1 * time.Second):
				t.Fatal("call still parked in redial backoff 1s after Close")
			}
		})
	}
}
