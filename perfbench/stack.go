package main

import (
	"fmt"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/remote"
	"salus/internal/rpc"
	"salus/internal/shell"
)

// stackConfig shapes one deployment of the serving stack.
type stackConfig struct {
	boards, rps int
	timing      core.Timing
	// tap, when non-nil, is installed on every board as a pass-through
	// shell interceptor (traced runs only).
	tap *frameTap
}

// stack is the deployment salus-server builds in cluster mode: a
// manufacturer key service on loopback TCP, a fleet manager whose SM
// enclaves fetch device keys through it, and the fleet gateway
// (remote.ServeFleet) on loopback TCP. The data owner's session is
// dialled separately (see attest).
type stack struct {
	mfrSrv  *rpc.Server
	kc      *remote.KeyClient
	mgr     *fleet.Manager
	gw      *rpc.Server
	addr    string
	systems []*core.System
	sess    *remote.ClusterSession
}

// newStack builds an unattested stack; every resource it opened is
// released on failure.
func newStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	mfr, err := manufacturer.New()
	if err != nil {
		return nil, fmt.Errorf("manufacturer: %w", err)
	}
	var mfrAddr string
	st.mfrSrv, mfrAddr, err = remote.ServeManufacturer(mfr, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve manufacturer: %w", err)
	}
	st.kc, err = remote.DialManufacturer(mfrAddr)
	if err != nil {
		return nil, fmt.Errorf("dial manufacturer: %w", err)
	}
	fcfg := fleet.Config{
		Kernel:       accel.Conv{},
		DNAPrefix:    "BENCH",
		Manufacturer: mfr,
		KeyService:   st.kc,
		Timing:       cfg.timing,
		RPsPerDevice: cfg.rps,
	}
	if cfg.tap != nil {
		tap := cfg.tap
		fcfg.Intercept = func(fpga.DNA) shell.Interceptor { return tap }
	}
	st.mgr, err = fleet.New(fcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	st.gw, st.systems, st.addr, err = remote.ServeFleet(st.mgr, cfg.boards, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve fleet: %w", err)
	}
	return st, nil
}

// expectations are the per-partition identities the data owner pins.
func (st *stack) expectations() []client.Expectations {
	exps := make([]client.Expectations, len(st.systems))
	for i, sys := range st.systems {
		exps[i] = sys.Expectations()
	}
	return exps
}

// attestTimes splits one owner handshake into its public calls.
type attestTimes struct {
	dial, attest time.Duration
}

// attest dials the gateway as the data owner and attests every partition.
func (st *stack) attest() (attestTimes, error) {
	var t attestTimes
	start := time.Now()
	sess, err := remote.DialCluster(st.addr, st.expectations())
	if err != nil {
		return t, fmt.Errorf("dial cluster: %w", err)
	}
	st.sess = sess
	mid := time.Now()
	t.dial = mid.Sub(start)
	if err := sess.Attest(); err != nil {
		return t, fmt.Errorf("attest: %w", err)
	}
	t.attest = time.Since(mid)
	return t, nil
}

// modelled sums the virtual time charged to every partition's clock.
func (st *stack) modelled() time.Duration {
	var d time.Duration
	for _, sys := range st.systems {
		d += sys.Clock.Elapsed()
	}
	return d
}

// retainedBytes is the payload the shells keep in their transcripts: every
// loaded bitstream and every host<->CL frame. Partitions of one board have
// shells of their own, so each system is counted once.
func (st *stack) retainedBytes() int64 {
	var n int64
	for _, sys := range st.systems {
		s := sys.Shell.Stats()
		n += int64(s.BytesLoaded + s.BytesIn + s.BytesOut)
	}
	return n
}

// shellTxns sums host<->CL round trips and their payload bytes.
func (st *stack) shellTxns() (txns, bytes int64) {
	for _, sys := range st.systems {
		s := sys.Shell.Stats()
		txns += int64(s.Transactions)
		bytes += int64(s.BytesIn + s.BytesOut)
	}
	return txns, bytes
}

// close tears the stack down in reverse order of construction. Errors
// from closing loopback listeners and connections change nothing the
// benchmark reports, so they are dropped.
func (st *stack) close() {
	if st.sess != nil {
		_ = st.sess.Close()
	}
	if st.gw != nil {
		_ = st.gw.Close()
	}
	if st.mgr != nil {
		st.mgr.Close()
	}
	if st.kc != nil {
		_ = st.kc.Close()
	}
	if st.mfrSrv != nil {
		_ = st.mfrSrv.Close()
	}
}
