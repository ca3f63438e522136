// Package sched fans Salus jobs across a pool of attested FPGA systems.
//
// The paper's evaluation (§6) drives multiple U200 boards from one host
// process; this package reproduces that shape in the simulation. Each
// booted *core.System — its register file and DMA windows a single shared
// resource — gets one worker goroutine and a bounded priority queue, and
// the scheduler routes every submitted workload to the least-loaded
// healthy device whose deployed CL matches the workload's kernel (ties
// broken round-robin). Session reuse (core.System's cached data-key
// epoch) means a device that stays busy pays the 4-write secure key/IV
// exchange once per rekey epoch instead of once per job; only the single
// secure start command remains on the per-job hot path.
//
// # Failure awareness
//
// A board can die mid-epoch — a wedged shell, a desynced secure channel, a
// yanked cable. Without countermeasures, least-loaded routing *amplifies*
// such a failure: the sick device fails jobs fast, its queue stays short,
// and the scheduler rewards it with ever more traffic. Two mechanisms
// prevent that:
//
//   - Quarantine: consecutive device faults (errors matching
//     core.ErrDeviceFault or an rpc transport failure — see Retryable)
//     trip a per-device circuit breaker. A quarantined device is skipped
//     by routing until its window expires, then admitted exactly one
//     probe job; success readmits it, failure re-quarantines with an
//     exponentially longer window.
//   - Bounded retry: a job that fails with a retryable fault is
//     re-dispatched to another device, up to MaxRetries hops. Jobs the
//     CL or enclave deliberately rejected (unknown kernel, sealed-input
//     authentication failure) are never retried — resubmitting them
//     cannot help and would forge extra failures.
//
// # Overload & QoS
//
// Demand above capacity degrades gracefully instead of blocking or
// collapsing. Every job carries a Class (see SubmitOptions): devices
// serve strict priority across bands and earliest-deadline-first within
// one, so a flood of ClassBatch work cannot delay a ClassCritical job by
// more than the one job already executing. Admission is class-aware:
// when every routable queue for a kernel is full, ClassBatch is rejected
// immediately with ErrOverloaded, while higher classes wait for space on
// *any* capable device — re-routing each round, so one wedged worker can
// never strand a submitter while healthy siblings have room. A job whose
// deadline has already passed is shed with ErrDeadlineExceeded — at
// admission, or at pickup, but never after touching a device.
//
// Every submitted job's future resolves exactly once, quarantined or not,
// retried or not, shed or not, even across Close.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"salus/internal/accel"
	"salus/internal/client"
	"salus/internal/core"
	"salus/internal/cryptoutil"
	"salus/internal/fpga"
	"salus/internal/metrics"
	"salus/internal/rpc"
)

// Process-wide metric handles (see internal/metrics): acquired once so the
// per-job hot path is a handful of atomic ops and no map lookups. The queue
// depth gauge counts jobs a device has accepted and not yet finished
// (pending + executing, batches weighted by size); it is incremented
// exactly once when a job is enqueued and decremented exactly once when
// the job leaves its device — completion, terminal failure, deadline
// shed, or hand-off to redispatch (which re-increments at the new
// device). Drain barriers are not counted. The three latency histograms
// split a job's life into time-in-queue, time-on-device, and end-to-end.
var (
	mQueueDepth   = metrics.Default().Gauge("salus_sched_queue_depth")
	mSubmitted    = metrics.Default().Counter("salus_sched_submitted_total")
	mCompleted    = metrics.Default().Counter("salus_sched_completed_total")
	mFailed       = metrics.Default().Counter("salus_sched_failed_total")
	mRedispatched = metrics.Default().Counter("salus_sched_redispatched_total")
	mOverloaded   = metrics.Default().Counter("salus_sched_overloaded_total")
	mShed         = metrics.Default().Counter("salus_sched_deadline_shed_total")
	mQuarantines  = metrics.Default().Counter("salus_sched_quarantine_total")
	mReadmits     = metrics.Default().Counter("salus_sched_readmit_total")
	mPermanents   = metrics.Default().Counter("salus_sched_permanent_total")
	mWait         = metrics.Default().Histogram("salus_sched_wait_seconds")
	mService      = metrics.Default().Histogram("salus_sched_service_seconds")
	mJob          = metrics.Default().Histogram("salus_sched_job_seconds")
)

// Defaults for Config's zero values.
const (
	// DefaultQueueDepth bounds each device's pending-entry queue. Full
	// queues apply class-aware backpressure: ClassBatch submissions fail
	// fast with ErrOverloaded, higher classes wait for space anywhere.
	DefaultQueueDepth = 32
	// DefaultMaxRetries is how many times one job is re-dispatched after a
	// retryable device fault before its future resolves with the error.
	DefaultMaxRetries = 2
	// DefaultQuarantineAfter is the consecutive-fault count that trips a
	// device's circuit breaker.
	DefaultQuarantineAfter = 3
	// DefaultQuarantineBase is the first quarantine window; each failed
	// probe doubles it up to DefaultQuarantineMax.
	DefaultQuarantineBase = 250 * time.Millisecond
	DefaultQuarantineMax  = 8 * time.Second
)

// admitPoll bounds how long a blocked Standard/Critical submission waits
// before re-routing: space wakeups are per-device single tokens, so the
// poll catches lost races and newly registered or readmitted devices.
const admitPoll = 2 * time.Millisecond

// Config tunes a Scheduler. Zero values select the defaults above.
type Config struct {
	// QueueDepth is the per-device pending-entry bound (a batch counts as
	// one entry).
	QueueDepth int
	// MaxRetries bounds re-dispatches per job after retryable faults;
	// negative disables retry entirely.
	MaxRetries int
	// QuarantineAfter is the consecutive device-fault count that
	// quarantines a device.
	QuarantineAfter int
	// QuarantineBase and QuarantineMax bound the exponential quarantine
	// window.
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// PermanentAfter is how many half-open probes must fail at the
	// QuarantineMax backoff ceiling before the breaker latches permanently
	// (the device is never probed or routed to again, and a fleet manager
	// may replace it). Zero or negative disables permanent quarantine.
	PermanentAfter int
	// TenantWeights sets each tenant's share of the per-band weighted
	// round-robin: out of every sum(weights) pops a band serves, tenant t
	// gets TenantWeights[t] of them. Unlisted tenants (and the "" tenant
	// that unlabelled jobs share) weigh 1. Weights shape service order
	// only within one priority band; strict priority across bands is
	// unchanged.
	TenantWeights map[string]int
}

// SubmitOptions carries a job's QoS contract; the zero value is
// ClassBatch with no deadline, so most callers want at least
// {Class: ClassStandard} — which is what the option-less Submit* methods
// use.
type SubmitOptions struct {
	// Class selects the priority band; see Class.
	Class Class
	// Deadline, when non-zero, is the absolute time after which the job's
	// result is worthless. Expired jobs are shed with ErrDeadlineExceeded
	// instead of occupying a device, and a blocked admission gives up
	// when the deadline passes.
	Deadline time.Time
	// Tenant labels the job for fair-share queueing and RP routing: the
	// job lands in its tenant's subqueue of the chosen band (see
	// Config.TenantWeights) and is only routed to partitions dedicated to
	// this tenant or shared ones. Empty means unlabelled — shared
	// partitions only, "" subqueue.
	Tenant string
}

// Lifecycle errors.
var (
	// ErrSchedulerClosed is the deterministic post-Close verdict: any
	// Submit/SubmitSealed/SubmitBatch racing or following Close resolves
	// its futures with this error instead of ever touching a device queue.
	// It is not retryable.
	ErrSchedulerClosed = errors.New("sched: scheduler closed")
	// ErrWaitTimeout is returned by Future.WaitTimeout when the deadline
	// expires first. The job is still running; the future remains valid.
	ErrWaitTimeout = errors.New("sched: wait timed out")
	// ErrUnknownDevice is returned by Drain/Remove for a DNA that is not
	// (or no longer) registered.
	ErrUnknownDevice = errors.New("sched: unknown device")
	// ErrDrainTimeout is returned when a drain deadline expires with jobs
	// still queued. The device stays unroutable; the jobs keep running.
	ErrDrainTimeout = errors.New("sched: drain deadline exceeded")
	// ErrOverloaded is the fast-reject verdict for ClassBatch work when
	// every routable queue for its kernel is full. The caller may retry
	// later; nothing was enqueued.
	ErrOverloaded = errors.New("sched: overloaded")
	// ErrDeadlineExceeded resolves a job whose deadline passed before a
	// device could run it; the job never executed.
	ErrDeadlineExceeded = errors.New("sched: deadline exceeded")
)

// Retryable reports whether err is a transport- or session-level fault —
// the device misbehaved, the job itself was never refused — and so the job
// may succeed on another device. Deliberate rejections (unknown kernel,
// sealed-input authentication, attestation failures) are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, core.ErrDeviceFault) || errors.Is(err, rpc.ErrClosed)
}

// Future is the handle returned by Submit: it resolves when the job
// finishes on some device.
type Future struct {
	done chan struct{}
	out  []byte
	err  error
}

// Wait blocks until the job completes and returns its result.
func (f *Future) Wait() ([]byte, error) {
	<-f.done
	return f.out, f.err
}

// Done is closed when the result is available; use with select.
func (f *Future) Done() <-chan struct{} { return f.done }

// WaitTimeout blocks until the job completes or d elapses, whichever comes
// first; on timeout it returns ErrWaitTimeout and the future stays live —
// Wait or a later WaitTimeout still observes the eventual result. A
// non-positive d polls: it returns immediately with the result or
// ErrWaitTimeout. Fleet drains use this so one wedged job cannot block a
// decommission forever.
func (f *Future) WaitTimeout(d time.Duration) ([]byte, error) {
	if d <= 0 {
		select {
		case <-f.done:
			return f.out, f.err
		default:
			return nil, ErrWaitTimeout
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.done:
		return f.out, f.err
	case <-t.C:
		return nil, ErrWaitTimeout
	}
}

func (f *Future) resolve(out []byte, err error) {
	f.out, f.err = out, err
	close(f.done)
}

func errFuture(err error) *Future {
	f := &Future{done: make(chan struct{})}
	f.resolve(nil, err)
	return f
}

// job is one queue entry; exactly one of the two shapes is populated.
type job struct {
	fut      *Future
	kernel   string
	attempts int // re-dispatches so far

	// QoS: class selects the band, deadlineNs (UnixNano, MaxInt64 when
	// none) orders the band's EDF heap with seq as the FIFO tie-break;
	// tenant selects the band's fair-share subqueue and constrains
	// routing to shared or same-tenant partitions.
	class      Class
	tenant     string
	deadline   time.Time
	deadlineNs int64
	seq        uint64

	// submitAt stamps Submit/SubmitSealed; enqueueAt restamps every
	// (re)dispatch. Wait time is enqueue->worker-pickup, job time is
	// submit->resolution.
	submitAt  time.Time
	enqueueAt time.Time

	// Plaintext path (Submit).
	w accel.Workload

	// Sealed path (SubmitSealed).
	sealed      bool
	params      [4]uint64
	sealedInput []byte

	// barrier marks a drain sentinel: the worker resolves the future
	// without touching the device. Barriers sort below every band, so
	// their resolution proves every job accepted before the drain began
	// has finished.
	barrier bool

	// Batch path (SubmitBatch/SubmitSealedBatch): the whole vector rides
	// one queue entry to one device and one secure frame per chunk; futs
	// resolves per job. ws or sealedJobs is populated to match sealed.
	batch      bool
	ws         []accel.Workload
	sealedJobs []core.SealedJob
	futs       []*Future
}

// size is the job's weight for queue-depth accounting: a batch loads a
// device with all of its jobs at once.
func (j *job) size() int64 {
	if j.batch {
		return int64(len(j.futs))
	}
	return 1
}

// expired reports whether the job's deadline (if any) has passed.
func (j *job) expired(now time.Time) bool {
	return !j.deadline.IsZero() && !now.Before(j.deadline)
}

// fail resolves every future the job carries with err and observes the
// end-to-end latency once per job.
func (j *job) fail(err error) {
	if j.batch {
		for _, f := range j.futs {
			mJob.Since(j.submitAt)
			f.resolve(nil, err)
		}
		return
	}
	mJob.Since(j.submitAt)
	j.fut.resolve(nil, err)
}

// device is one registered system plus its queue, counters, and health.
// With spatial sharing the schedulable unit is the reconfigurable
// partition, not the board: each co-resident RP of one die registers as
// its own device — own queue, own worker, own breaker — identified by
// (DNA, rp). tenant, when non-empty, dedicates the partition: routing
// offers it only that tenant's jobs; "" serves everyone.
type device struct {
	sys     *core.System
	rp      int
	tenant  string
	q       *pqueue
	rpGauge *metrics.Gauge // per-RP queue depth, mirrors queued
	queued  atomic.Int64   // accepted and unfinished, batches weighted

	completed atomic.Uint64
	failed    atomic.Uint64
	retried   atomic.Uint64 // jobs this device faulted that were re-dispatched
	shed      atomic.Uint64 // expired jobs dropped at pickup

	// draining stops routing to this device while its queue runs dry
	// (Drain/Remove). The queue checks it under its own lock, so no push
	// can land behind a drain barrier.
	draining atomic.Bool

	// Health / circuit breaker.
	hmu         sync.Mutex
	consecFault int
	quarantined bool
	probing     bool // the single half-open probe job is in flight
	probeAt     time.Time
	backoff     time.Duration
	maxedProbes int  // failed probes at the backoff ceiling
	permanent   bool // breaker latched open; never probed again
}

// enqueue offers the job to the device's queue and, on acceptance, takes
// the accounting increments that the dequeue paths pair with.
func (d *device) enqueue(j *job, force bool) pushVerdict {
	j.enqueueAt = time.Now()
	v := d.q.push(j, force)
	if v == pushOK {
		n := j.size()
		d.queued.Add(n)
		mQueueDepth.Add(n)
		d.rpGauge.Add(n)
	}
	return v
}

// depart takes the accounting decrements for a job leaving this device
// (completion, terminal failure, shed, or redispatch hand-off).
func (d *device) depart(j *job) {
	n := j.size()
	d.queued.Add(-n)
	mQueueDepth.Add(-n)
	d.rpGauge.Add(-n)
}

// routable reports whether routing should consider this device at all —
// draining and permanently quarantined devices are invisible even as a
// fallback (work parked on them would never be served deliberately).
func (d *device) routable() bool {
	if d.draining.Load() {
		return false
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return !d.permanent
}

// admissible reports whether routing may hand the device new work: healthy,
// or quarantined with an expired window and no probe already in flight.
func (d *device) admissible(now time.Time) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if !d.quarantined {
		return true
	}
	return !d.probing && !now.Before(d.probeAt)
}

// beginProbe marks the chosen quarantined device as running its one
// half-open probe; a no-op on healthy devices.
func (d *device) beginProbe() {
	d.hmu.Lock()
	if d.quarantined {
		d.probing = true
	}
	d.hmu.Unlock()
}

// onSuccess resets the breaker: one good job readmits the device.
func (d *device) onSuccess() {
	d.hmu.Lock()
	readmitted := d.quarantined
	d.consecFault, d.quarantined, d.probing, d.backoff = 0, false, false, 0
	d.hmu.Unlock()
	if readmitted {
		mReadmits.Inc()
	}
}

// onFault records a device fault and trips or extends the quarantine: a
// failed probe re-quarantines immediately with a doubled window; otherwise
// the breaker trips once consecutive faults reach the threshold. Once
// permanentAfter probes have failed at the backoff ceiling the breaker
// latches permanently — the board is considered dead and a fleet manager
// may replace it (permanentAfter <= 0 never latches).
func (d *device) onFault(now time.Time, after int, base, max time.Duration, permanentAfter int) {
	d.hmu.Lock()
	wasQuarantined, wasPermanent := d.quarantined, d.permanent
	d.consecFault++
	failedProbe := d.probing
	d.probing = false
	if failedProbe || d.consecFault >= after {
		if failedProbe && d.backoff >= max {
			d.maxedProbes++
			if permanentAfter > 0 && d.maxedProbes >= permanentAfter {
				d.permanent = true
			}
		}
		if d.backoff == 0 {
			d.backoff = base
		} else if d.backoff < max {
			d.backoff *= 2
			if d.backoff > max {
				d.backoff = max
			}
		}
		d.quarantined = true
		d.probeAt = now.Add(d.backoff)
	}
	tripped := d.quarantined && !wasQuarantined
	latched := d.permanent && !wasPermanent
	d.hmu.Unlock()
	if tripped {
		mQuarantines.Inc()
	}
	if latched {
		mPermanents.Inc()
	}
}

// shedExpired drops a job whose deadline passed while it waited in the
// queue: counters, then ErrDeadlineExceeded — the device is never
// touched.
func (d *device) shedExpired(j *job) {
	n := uint64(j.size())
	d.depart(j)
	d.shed.Add(n)
	d.failed.Add(n)
	mShed.Add(n)
	mFailed.Add(n)
	j.fail(ErrDeadlineExceeded)
}

func (d *device) run(s *Scheduler) {
	defer s.wg.Done()
	for {
		j := d.q.pop()
		if j == nil {
			return
		}
		if j.barrier {
			j.fut.resolve(nil, nil)
			continue
		}
		if j.expired(time.Now()) {
			d.shedExpired(j)
			continue
		}
		if j.batch {
			d.runBatch(s, j)
			continue
		}
		serviceStart := time.Now()
		mWait.Observe(serviceStart.Sub(j.enqueueAt))
		var out []byte
		var err error
		if j.sealed {
			out, err = d.sys.RunJobSealed(j.kernel, j.params, j.sealedInput)
		} else {
			out, err = d.sys.RunJob(j.w)
		}
		d.depart(j)
		mService.Since(serviceStart)
		if err == nil {
			d.completed.Add(1)
			mCompleted.Inc()
			mJob.Since(j.submitAt)
			d.onSuccess()
			j.fut.resolve(out, nil)
			continue
		}
		d.failed.Add(1)
		if Retryable(err) {
			d.onFault(time.Now(), s.quarantineAfter, s.quarantineBase, s.quarantineMax, s.permanentAfter)
			if j.attempts < s.maxRetries {
				j.attempts++
				d.retried.Add(1)
				mRedispatched.Inc()
				s.redispatch(j, d, err)
				continue
			}
		}
		mFailed.Inc()
		mJob.Since(j.submitAt)
		j.fut.resolve(nil, err)
	}
}

// runBatch services one batched queue entry. A transport/session fault
// covers the whole batch: the entry is re-dispatched intact to another
// device (bounded by MaxRetries) or every future resolves with the fault.
// Per-job verdicts inside a delivered batch resolve individually; a
// retryable per-job fault is re-dispatched as a single job so one sick
// result cannot force its siblings through another round trip.
func (d *device) runBatch(s *Scheduler, j *job) {
	n := int64(len(j.futs))
	serviceStart := time.Now()
	mWait.Observe(serviceStart.Sub(j.enqueueAt))
	var results []core.BatchResult
	var err error
	if j.sealed {
		results, err = d.sys.RunJobSealedBatch(j.kernel, j.sealedJobs)
	} else {
		results, err = d.sys.RunJobBatch(j.ws)
	}
	d.depart(j)
	mService.Since(serviceStart)

	if err != nil {
		d.failed.Add(uint64(n))
		if Retryable(err) {
			d.onFault(time.Now(), s.quarantineAfter, s.quarantineBase, s.quarantineMax, s.permanentAfter)
			if j.attempts < s.maxRetries {
				j.attempts++
				d.retried.Add(uint64(n))
				mRedispatched.Add(uint64(n))
				s.redispatch(j, d, err)
				return
			}
		}
		mFailed.Add(uint64(n))
		j.fail(err)
		return
	}

	anySuccess := false
	for i, r := range results {
		if r.Err == nil {
			anySuccess = true
			d.completed.Add(1)
			mCompleted.Inc()
			mJob.Since(j.submitAt)
			j.futs[i].resolve(r.Output, nil)
			continue
		}
		d.failed.Add(1)
		if Retryable(r.Err) && j.attempts < s.maxRetries {
			sub := &job{
				fut:        j.futs[i],
				kernel:     j.kernel,
				attempts:   j.attempts + 1,
				class:      j.class,
				tenant:     j.tenant,
				deadline:   j.deadline,
				deadlineNs: j.deadlineNs,
				seq:        j.seq,
				submitAt:   j.submitAt,
			}
			if j.sealed {
				sub.sealed = true
				sub.params = j.sealedJobs[i].Params
				sub.sealedInput = j.sealedJobs[i].Input
			} else {
				sub.w = j.ws[i]
			}
			d.retried.Add(1)
			mRedispatched.Inc()
			s.redispatch(sub, d, r.Err)
			continue
		}
		mFailed.Inc()
		mJob.Since(j.submitAt)
		j.futs[i].resolve(nil, r.Err)
	}
	if anySuccess {
		d.onSuccess()
	}
}

// Scheduler routes jobs to a pool of booted systems.
//
// Lock discipline: routing holds mu.RLock only long enough to pick a
// device; the queue push happens outside the scheduler lock under the
// queue's own mutex, which also arbitrates closure — a push racing Close
// or Remove observes a closed queue and re-routes, so nothing is ever
// lost or sent into the void. A blocked admission holds no locks at all.
type Scheduler struct {
	mu      sync.RWMutex
	devices []*device
	closed  bool
	done    chan struct{} // closed by Close; unblocks admission waiters
	wg      sync.WaitGroup
	rr      atomic.Uint64 // round-robin offset for tie-breaking
	seq     atomic.Uint64 // submission order for EDF ties

	queueDepth      int
	maxRetries      int
	quarantineAfter int
	quarantineBase  time.Duration
	quarantineMax   time.Duration
	permanentAfter  int
	tenantWeights   map[string]int
}

// New returns an empty scheduler; add systems with Register.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		done:            make(chan struct{}),
		queueDepth:      cfg.QueueDepth,
		maxRetries:      cfg.MaxRetries,
		quarantineAfter: cfg.QuarantineAfter,
		quarantineBase:  cfg.QuarantineBase,
		quarantineMax:   cfg.QuarantineMax,
		permanentAfter:  cfg.PermanentAfter,
		tenantWeights:   cfg.TenantWeights,
	}
	if s.queueDepth <= 0 {
		s.queueDepth = DefaultQueueDepth
	}
	if s.maxRetries == 0 {
		s.maxRetries = DefaultMaxRetries
	} else if s.maxRetries < 0 {
		s.maxRetries = 0
	}
	if s.quarantineAfter <= 0 {
		s.quarantineAfter = DefaultQuarantineAfter
	}
	if s.quarantineBase <= 0 {
		s.quarantineBase = DefaultQuarantineBase
	}
	if s.quarantineMax <= 0 {
		s.quarantineMax = DefaultQuarantineMax
	}
	return s
}

// Register adds a booted system to the pool as a shared partition (any
// tenant's work may route to it) and starts its worker. The system must
// have completed SecureBoot (or the remote provisioning handshake): the
// scheduler never boots devices itself, because boot is where attestation
// evidence is checked and that belongs to the owner. The schedulable unit
// is the system's reconfigurable partition — co-resident RPs of one die
// register independently and queue, dispatch, and drain independently.
func (s *Scheduler) Register(sys *core.System) error {
	return s.RegisterTenant(sys, "")
}

// RegisterTenant is Register with the partition dedicated to one tenant:
// routing offers it only jobs submitted with the same SubmitOptions.Tenant
// label. An empty tenant registers a shared partition.
func (s *Scheduler) RegisterTenant(sys *core.System, tenant string) error {
	if sys == nil {
		return fmt.Errorf("sched: nil system")
	}
	if !sys.Booted() {
		return fmt.Errorf("sched: system %s not booted", sys.Device.DNA())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSchedulerClosed
	}
	rp := sys.Partition()
	for _, dd := range s.devices {
		if dd.sys.Device.DNA() == sys.Device.DNA() && dd.rp == rp {
			return fmt.Errorf("sched: partition %s/rp%d already registered", sys.Device.DNA(), rp)
		}
	}
	d := &device{
		sys:     sys,
		rp:      rp,
		tenant:  tenant,
		rpGauge: metrics.Default().Gauge(rpGaugeName(sys.Device.DNA(), rp)),
	}
	d.q = newPQueue(s.queueDepth, &d.draining, s.tenantWeights)
	s.devices = append(s.devices, d)
	s.wg.Add(1)
	go d.run(s)
	return nil
}

// rpGaugeName names a partition's queue-depth gauge. The series lives
// while the partition is registered: Remove and RemoveRP release it.
func rpGaugeName(dna fpga.DNA, rp int) string {
	return fmt.Sprintf("salus_sched_rp_queue_depth_%s_rp%d", dna, rp)
}

// RegisterPipeline adds every stage of a booted pipeline. Each stage runs
// a different kernel, so pipeline stages naturally shard the pool by
// kernel name.
func (s *Scheduler) RegisterPipeline(p *core.Pipeline) error {
	for _, sys := range p.Systems() {
		if err := s.Register(sys); err != nil {
			return err
		}
	}
	return nil
}

// AddDevice hot-adds a booted system to a serving pool. It is Register
// under the name the fleet lifecycle uses: routing sees the new device on
// the very next submission, no restart or pause required.
func (s *Scheduler) AddDevice(sys *core.System) error { return s.Register(sys) }

// findDevices returns every registered partition of the board with the
// DNA, in registration order (so partition 0 first when boards register
// their RPs in order). Callers hold at least mu.RLock.
func (s *Scheduler) findDevices(dna fpga.DNA) []*device {
	var out []*device
	for _, d := range s.devices {
		if d.sys.Device.DNA() == dna {
			out = append(out, d)
		}
	}
	return out
}

// findRP returns the one registered partition (dna, rp), or nil. Callers
// hold at least mu.RLock.
func (s *Scheduler) findRP(dna fpga.DNA, rp int) *device {
	for _, d := range s.devices {
		if d.sys.Device.DNA() == dna && d.rp == rp {
			return d
		}
	}
	return nil
}

// serves reports whether the partition may be offered this tenant's work:
// shared partitions serve everyone, dedicated ones only their own tenant.
func (d *device) serves(tenant string) bool {
	return d.tenant == "" || d.tenant == tenant
}

// Drain stops routing new work to every partition of the board and waits
// — bounded by timeout, where <= 0 means wait forever — until every job
// the board had already accepted has finished. Each RP flips its routing
// flag (the queue checks it under its own lock, so no submission can slip
// in afterwards) and parks a barrier sentinel below every priority band:
// a barrier pops only once its queue is empty, so the last barrier's
// resolution proves the whole die ran dry. On ErrDrainTimeout the board
// stays unroutable and its remaining jobs keep running (their futures
// still resolve); a drained board can be decommissioned with Remove or
// handed back to routing only by a future Register of its systems. Use
// DrainRP to drain one co-resident partition without disturbing its
// siblings.
func (s *Scheduler) Drain(dna fpga.DNA, timeout time.Duration) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrSchedulerClosed
	}
	ds := s.findDevices(dna)
	if len(ds) == 0 {
		s.mu.RUnlock()
		return fmt.Errorf("%w: %s", ErrUnknownDevice, dna)
	}
	for _, d := range ds {
		d.draining.Store(true)
	}
	s.mu.RUnlock()
	return drainDevices(ds, timeout, dna)
}

// DrainRP is Drain scoped to one reconfigurable partition: co-resident
// RPs of the same die keep serving while (dna, rp) runs its queue dry —
// the spatial-sharing reclaim path, where one tenant's partition is
// vacated for re-placement without evicting its neighbours.
func (s *Scheduler) DrainRP(dna fpga.DNA, rp int, timeout time.Duration) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrSchedulerClosed
	}
	d := s.findRP(dna, rp)
	if d == nil {
		s.mu.RUnlock()
		return fmt.Errorf("%w: %s/rp%d", ErrUnknownDevice, dna, rp)
	}
	d.draining.Store(true)
	s.mu.RUnlock()
	return drainDevices([]*device{d}, timeout, dna)
}

// drainDevices parks one barrier per already-draining device and waits
// for all of them under one shared deadline.
func drainDevices(ds []*device, timeout time.Duration, dna fpga.DNA) error {
	start := time.Now()
	futs := make([]*Future, 0, len(ds))
	for _, d := range ds {
		j := &job{fut: &Future{done: make(chan struct{})}, barrier: true}
		if d.q.pushBarrier(j) {
			futs = append(futs, j.fut)
		}
		// A closed queue means that worker already drained everything and
		// exited — exactly the post-condition a drain wants.
	}
	for _, f := range futs {
		if timeout <= 0 {
			_, _ = f.Wait()
			continue
		}
		remaining := timeout - time.Since(start)
		if _, err := f.WaitTimeout(remaining); err != nil {
			return fmt.Errorf("%w: %s", ErrDrainTimeout, dna)
		}
	}
	return nil
}

// Remove drains the whole board (bounded by timeout) and decommissions
// every one of its partitions: unregisters them from the pool, closes
// their queues, and returns the lowest-numbered partition's system so the
// caller can recycle the board. A drain timeout does NOT abort the
// removal — the board leaves the pool immediately and its workers keep
// resolving the leftover queues before exiting, so no accepted job is
// ever lost; the ErrDrainTimeout is returned alongside the system to
// report that shutdown outlived the deadline.
func (s *Scheduler) Remove(dna fpga.DNA, timeout time.Duration) (*core.System, error) {
	drainErr := s.Drain(dna, timeout)
	if drainErr != nil && !errors.Is(drainErr, ErrDrainTimeout) {
		return nil, drainErr
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	var removed []*device
	kept := s.devices[:0]
	for _, dd := range s.devices {
		if dd.sys.Device.DNA() == dna {
			removed = append(removed, dd)
			// Released under mu, so a re-registration of the same
			// partition can never have its fresh series dropped here.
			metrics.Default().Remove(rpGaugeName(dna, dd.rp))
		} else {
			kept = append(kept, dd)
		}
	}
	s.devices = kept
	s.mu.Unlock()
	if len(removed) == 0 {
		// A concurrent Remove got here first.
		return nil, fmt.Errorf("%w: %s", ErrUnknownDevice, dna)
	}
	first := removed[0]
	for _, d := range removed {
		d.q.close()
		if d.rp < first.rp {
			first = d
		}
	}
	return first.sys, drainErr
}

// RemoveRP drains and decommissions one partition, leaving co-resident
// RPs of the same die serving. The returned system is reclaim-ready: the
// caller zeroizes its key material (core.System.Reclaim) before the
// fabric is re-placed for another tenant.
func (s *Scheduler) RemoveRP(dna fpga.DNA, rp int, timeout time.Duration) (*core.System, error) {
	drainErr := s.DrainRP(dna, rp, timeout)
	if drainErr != nil && !errors.Is(drainErr, ErrDrainTimeout) {
		return nil, drainErr
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	var d *device
	for i, dd := range s.devices {
		if dd.sys.Device.DNA() == dna && dd.rp == rp {
			d = dd
			s.devices = append(s.devices[:i], s.devices[i+1:]...)
			metrics.Default().Remove(rpGaugeName(dna, rp))
			break
		}
	}
	s.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("%w: %s/rp%d", ErrUnknownDevice, dna, rp)
	}
	d.q.close()
	return d.sys, drainErr
}

// pick chooses a target for the kernel under a three-tier preference:
// admissible with queue space, then admissible (the caller may wait or
// shed), then — if every matching device is quarantined — the
// least-loaded one anyway, because degrading beats rejecting and bounded
// retries cap the damage. Within a tier the fewest queued jobs wins,
// ties broken round-robin so an idle pool spreads work instead of
// hammering device 0. The second return reports whether the choice
// currently has queue space. Callers hold at least mu.RLock.
func (s *Scheduler) pick(kernelName, tenant string, exclude *device) (*device, bool) {
	n := len(s.devices)
	if n == 0 {
		return nil, false
	}
	now := time.Now()
	start := int(s.rr.Add(1) % uint64(n))
	var bestSpace, best, fallback *device
	var bestSpaceQ, bestQ, fallbackQ int64
	for i := 0; i < n; i++ {
		d := s.devices[(start+i)%n]
		if d == exclude || d.sys.Package.KernelName != kernelName || !d.serves(tenant) {
			continue
		}
		if !d.routable() {
			continue
		}
		q := d.queued.Load()
		if fallback == nil || q < fallbackQ {
			fallback, fallbackQ = d, q
		}
		if !d.admissible(now) {
			continue
		}
		if best == nil || q < bestQ {
			best, bestQ = d, q
		}
		if d.q.hasSpace() && (bestSpace == nil || q < bestSpaceQ) {
			bestSpace, bestSpaceQ = d, q
		}
	}
	switch {
	case bestSpace != nil:
		bestSpace.beginProbe()
		return bestSpace, true
	case best != nil:
		best.beginProbe()
		return best, false
	case fallback != nil:
		fallback.beginProbe()
		return fallback, fallback.q.hasSpace()
	}
	return nil, false
}

// route picks a target under mu.RLock; hasSpace reports whether its queue
// could currently admit a non-forced push. The push itself happens
// outside the lock and may still race to full — callers loop.
func (s *Scheduler) route(kernelName, tenant string, exclude *device) (*device, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrSchedulerClosed
	}
	d, hasSpace := s.pick(kernelName, tenant, exclude)
	if d == nil && exclude != nil {
		// Nobody else runs this kernel for this tenant; the faulting
		// device is still the only candidate.
		d, hasSpace = s.pick(kernelName, tenant, nil)
	}
	if d == nil {
		if tenant != "" {
			return nil, false, fmt.Errorf("sched: no registered device runs kernel %q for tenant %q", kernelName, tenant)
		}
		return nil, false, fmt.Errorf("sched: no registered device runs kernel %q", kernelName)
	}
	return d, hasSpace, nil
}

// admit routes and enqueues j, applying the class-aware overload policy:
// ClassBatch fails fast with ErrOverloaded when no capable queue has
// space; higher classes wait — re-routing every round, so a wedged
// device's full queue never strands them while a healthy sibling has
// room — bounded only by the job's deadline and scheduler shutdown. A
// non-nil return means nothing was enqueued; the caller resolves the
// futures.
func (s *Scheduler) admit(j *job) error {
	now := time.Now()
	if j.expired(now) {
		mShed.Add(uint64(j.size()))
		return ErrDeadlineExceeded
	}
	var deadlineC <-chan time.Time
	if !j.deadline.IsZero() {
		dt := time.NewTimer(j.deadline.Sub(now))
		defer dt.Stop()
		deadlineC = dt.C
	}
	for {
		d, hasSpace, err := s.route(j.kernel, j.tenant, nil)
		if err != nil {
			return err
		}
		if hasSpace || j.class == ClassCritical {
			// ClassCritical force-enqueues past the capacity check:
			// making the top band wait for queue space would have it race
			// lower-class submitters for every freed slot — priority
			// inversion at the admission gate. The overshoot is bounded
			// by the caller's own concurrency, and the band outranks
			// everything already queued anyway.
			switch d.enqueue(j, j.class == ClassCritical) {
			case pushOK:
				return nil
			default:
				// Lost a race (filled, started draining, or closed under
				// us): pick again.
				continue
			}
		}
		if j.class == ClassBatch {
			mOverloaded.Add(uint64(j.size()))
			return ErrOverloaded
		}
		poll := time.NewTimer(admitPoll)
		select {
		case <-d.q.space:
			poll.Stop()
		case <-poll.C:
		case <-deadlineC:
			poll.Stop()
			mShed.Add(uint64(j.size()))
			return ErrDeadlineExceeded
		case <-s.done:
			poll.Stop()
			return ErrSchedulerClosed
		}
	}
}

func (s *Scheduler) submit(j *job) *Future {
	j.fut = &Future{done: make(chan struct{})}
	j.submitAt = time.Now()
	j.seq = s.seq.Add(1)
	mSubmitted.Inc()
	if err := s.admit(j); err != nil {
		mFailed.Inc()
		return errFuture(err)
	}
	return j.fut
}

// submitBatch admits one batch entry; on an admission failure (closed
// scheduler, no device for the kernel, overload, expired deadline) every
// future resolves with the error — deterministically, never touching a
// device queue.
func (s *Scheduler) submitBatch(j *job) {
	j.submitAt = time.Now()
	j.seq = s.seq.Add(1)
	n := uint64(len(j.futs))
	mSubmitted.Add(n)
	if err := s.admit(j); err != nil {
		mFailed.Add(n)
		for _, f := range j.futs {
			f.resolve(nil, err)
		}
	}
}

// redispatch retries a faulted job (or whole batch) on another device.
// The force push bypasses the capacity bound — the retry budget is
// already bounded by MaxRetries — and never blocks, so workers can
// redispatch to each other without deadlock. Dead ends resolve the
// futures with the fault.
func (s *Scheduler) redispatch(j *job, from *device, cause error) {
	for {
		d, _, err := s.route(j.kernel, j.tenant, from)
		if err != nil {
			mFailed.Add(uint64(j.size()))
			j.fail(fmt.Errorf("sched: retry %d dead-ended (%v): %w", j.attempts, err, cause))
			return
		}
		if d.enqueue(j, true) == pushOK {
			return
		}
		// The chosen queue closed or began draining underneath us; routing
		// no longer returns it, so the next round picks someone else (or
		// dead-ends).
	}
}

// Submit queues a plaintext workload (the local data-owner path, like
// System.RunJob) at ClassStandard with no deadline and returns a future
// for its result.
func (s *Scheduler) Submit(w accel.Workload) *Future {
	return s.SubmitOpts(w, SubmitOptions{Class: ClassStandard})
}

// SubmitOpts is Submit with an explicit QoS contract.
func (s *Scheduler) SubmitOpts(w accel.Workload, opt SubmitOptions) *Future {
	if w.Kernel == nil {
		return errFuture(fmt.Errorf("sched: workload has no kernel"))
	}
	j := &job{kernel: w.Kernel.Name(), w: w}
	j.applyOptions(opt)
	return s.submit(j)
}

// SubmitSealed queues a sealed job (the remote data-owner path, like
// System.RunJobSealed) at ClassStandard with no deadline. The pool must
// share one data key — see BootShared — or the job will only decrypt on
// the device it was sealed for.
func (s *Scheduler) SubmitSealed(kernelName string, params [4]uint64, sealedInput []byte) *Future {
	return s.SubmitSealedOpts(kernelName, params, sealedInput, SubmitOptions{Class: ClassStandard})
}

// SubmitSealedOpts is SubmitSealed with an explicit QoS contract.
func (s *Scheduler) SubmitSealedOpts(kernelName string, params [4]uint64, sealedInput []byte, opt SubmitOptions) *Future {
	j := &job{
		kernel:      kernelName,
		sealed:      true,
		params:      params,
		sealedInput: sealedInput,
	}
	j.applyOptions(opt)
	return s.submit(j)
}

// applyOptions stamps the job's QoS fields from opt.
func (j *job) applyOptions(opt SubmitOptions) {
	j.class = opt.Class.clamp()
	j.tenant = opt.Tenant
	j.deadline = opt.Deadline
	if opt.Deadline.IsZero() {
		j.deadlineNs = math.MaxInt64
	} else {
		j.deadlineNs = opt.Deadline.UnixNano()
	}
}

// SubmitBatch queues a batch of plaintext workloads as a first-class unit:
// jobs sharing a kernel ride to one device together and execute through
// core.RunJobBatch — one sealed register frame per chunk, one fabric wait
// per chunk, pipelined DMA — instead of paying per-job round trips. The
// returned futures are index-aligned with ws and each resolves exactly
// once. Workloads with different kernels are grouped into one batch per
// kernel. The batch rides at ClassStandard; use SubmitBatchOpts for an
// explicit class or deadline.
func (s *Scheduler) SubmitBatch(ws []accel.Workload) []*Future {
	return s.SubmitBatchOpts(ws, SubmitOptions{Class: ClassStandard})
}

// SubmitBatchOpts is SubmitBatch with one QoS contract covering every
// job in the batch.
func (s *Scheduler) SubmitBatchOpts(ws []accel.Workload, opt SubmitOptions) []*Future {
	futs := make([]*Future, len(ws))
	groups := make(map[string][]int)
	var order []string
	for i, w := range ws {
		if w.Kernel == nil {
			futs[i] = errFuture(fmt.Errorf("sched: workload has no kernel"))
			continue
		}
		name := w.Kernel.Name()
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], i)
		futs[i] = &Future{done: make(chan struct{})}
	}
	for _, name := range order {
		idxs := groups[name]
		j := &job{
			kernel: name,
			batch:  true,
			ws:     make([]accel.Workload, len(idxs)),
			futs:   make([]*Future, len(idxs)),
		}
		for k, i := range idxs {
			j.ws[k] = ws[i]
			j.futs[k] = futs[i]
		}
		j.applyOptions(opt)
		s.submitBatch(j)
	}
	return futs
}

// SubmitSealedBatch queues a batch of sealed jobs for one kernel (the
// remote data-owner path, like System.RunJobSealedBatch) at
// ClassStandard. The returned futures are index-aligned with jobs.
func (s *Scheduler) SubmitSealedBatch(kernelName string, jobs []core.SealedJob) []*Future {
	return s.SubmitSealedBatchOpts(kernelName, jobs, SubmitOptions{Class: ClassStandard})
}

// SubmitSealedBatchOpts is SubmitSealedBatch with one QoS contract
// covering every job in the batch.
func (s *Scheduler) SubmitSealedBatchOpts(kernelName string, jobs []core.SealedJob, opt SubmitOptions) []*Future {
	futs := make([]*Future, len(jobs))
	for i := range futs {
		futs[i] = &Future{done: make(chan struct{})}
	}
	if len(jobs) == 0 {
		return futs
	}
	j := &job{
		kernel:     kernelName,
		batch:      true,
		sealed:     true,
		sealedJobs: append([]core.SealedJob(nil), jobs...),
		futs:       futs,
	}
	j.applyOptions(opt)
	s.submitBatch(j)
	return futs
}

// DeviceStats is one device's lifetime counters and health snapshot.
type DeviceStats struct {
	DNA fpga.DNA
	// RP is the reconfigurable partition index on the die; co-resident
	// partitions of one board report one row each, same DNA.
	RP int
	// Tenant is the partition's dedication ("" = shared).
	Tenant    string
	Kernel    string
	Queued    int64
	Completed uint64
	Failed    uint64
	// Retried counts jobs this device faulted that were re-dispatched
	// elsewhere (they appear in Failed too).
	Retried uint64
	// Shed counts jobs dropped at pickup because their deadline had
	// already passed (they appear in Failed too).
	Shed uint64
	// Quarantined reports whether the device's circuit breaker is
	// currently open; ConsecutiveFaults is its running fault streak.
	Quarantined       bool
	ConsecutiveFaults int
	// Backoff is the current quarantine window; Permanent reports a
	// latched breaker (the device will never be probed again); Draining
	// reports a device running its queue dry ahead of decommission.
	Backoff   time.Duration
	Permanent bool
	Draining  bool
}

// QueuedTotal sums the pending-entry count across every device — the raw
// backlog signal behind fleet autoscaling and federation spill-over. Far
// cheaper than Stats: two atomic loads per device, no health-mutex traffic,
// so a routing tier may consult it on every submission.
func (s *Scheduler) QueuedTotal() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, d := range s.devices {
		n += d.queued.Load()
	}
	return n
}

// DeviceCount reports the registered device count (including quarantined
// and draining members).
func (s *Scheduler) DeviceCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.devices)
}

// Stats snapshots the pool.
func (s *Scheduler) Stats() []DeviceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DeviceStats, 0, len(s.devices))
	for _, d := range s.devices {
		d.hmu.Lock()
		quarantined, faults := d.quarantined, d.consecFault
		backoff, permanent := d.backoff, d.permanent
		d.hmu.Unlock()
		out = append(out, DeviceStats{
			DNA:               d.sys.Device.DNA(),
			RP:                d.rp,
			Tenant:            d.tenant,
			Kernel:            d.sys.Package.KernelName,
			Queued:            d.queued.Load(),
			Completed:         d.completed.Load(),
			Failed:            d.failed.Load(),
			Retried:           d.retried.Load(),
			Shed:              d.shed.Load(),
			Quarantined:       quarantined,
			ConsecutiveFaults: faults,
			Backoff:           backoff,
			Permanent:         permanent,
			Draining:          d.draining.Load(),
		})
	}
	return out
}

// Close stops accepting jobs, drains every queue, and waits for the
// workers. Already-queued jobs still run; their futures resolve. A job
// that faults during shutdown resolves with its error instead of
// retrying; blocked admissions resolve with ErrSchedulerClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	devices := s.devices
	s.mu.Unlock()
	close(s.done)
	for _, d := range devices {
		d.q.close()
	}
	s.wg.Wait()
}

// BootShared boots every system in the slice with one freshly generated
// shared data key and returns that key. A pool provisioned this way runs
// sealed jobs interchangeably: input sealed under the key opens on any
// device, which is what lets SubmitSealed route by load instead of by
// identity.
//
// Key distribution is atomic in two phases: first every device runs the
// instance side of the boot and has its cascaded quote verified; only when
// all K chains check out is the key sealed and delivered to each. A board
// failing mid-boot therefore never leaves siblings holding a
// half-distributed shared key — the call fails and no device received it.
func BootShared(systems []*core.System) ([]byte, error) {
	key := cryptoutil.RandomKey(16)
	if err := bootShared(systems, key, false); err != nil {
		return nil, err
	}
	return key, nil
}

// BootSharedParallel is BootShared with phase one running concurrently —
// one goroutine per device. With a shared smapp.PreparedCache/QuotePool in
// the systems' configs the expensive boot stages single-flight across the
// fleet; without them the boots are merely overlapped. The same two-phase
// atomicity holds.
func BootSharedParallel(systems []*core.System) ([]byte, error) {
	key := cryptoutil.RandomKey(16)
	if err := bootShared(systems, key, true); err != nil {
		return nil, err
	}
	return key, nil
}

// bootShared runs phase one (boot + verify, optionally parallel) on every
// system, then phase two (seal + deliver) only if the whole fleet passed.
func bootShared(systems []*core.System, key []byte, parallel bool) error {
	pubs := make([][]byte, len(systems))
	bootOne := func(i int) error {
		sys := systems[i]
		ver := client.New(sys.Expectations())
		nonce := ver.NewNonce()
		quote, err := sys.BootAndQuote(nonce)
		if err != nil {
			return fmt.Errorf("sched: boot device %d (%s): %w", i, sys.Device.DNA(), err)
		}
		pub, err := sys.VerifyQuote(ver, nonce, quote)
		if err != nil {
			return fmt.Errorf("sched: verify device %d (%s): %w", i, sys.Device.DNA(), err)
		}
		pubs[i] = pub
		return nil
	}

	if !parallel {
		for i := range systems {
			if err := bootOne(i); err != nil {
				return err
			}
		}
	} else {
		errs := make([]error, len(systems))
		var wg sync.WaitGroup
		for i := range systems {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = bootOne(i)
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}

	// Every chain verified: deliver the key. Sealing is per-enclave-key and
	// cheap; a delivery failure here is a crypto-layer defect, not a device
	// fault, and is surfaced as-is.
	for i, sys := range systems {
		if err := sys.ProvisionKey(pubs[i], key); err != nil {
			return fmt.Errorf("sched: provision device %d (%s): %w", i, sys.Device.DNA(), err)
		}
	}
	return nil
}
