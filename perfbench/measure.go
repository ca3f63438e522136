package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"salus/internal/metrics"
)

// Names of the registry series the per-layer metrics difference.
const (
	hCliCall    = "salus_rpc_client_call_seconds"
	hSrvHandle  = "salus_rpc_server_handle_seconds"
	hSchedJob   = "salus_sched_job_seconds"
	hSchedWait  = "salus_sched_wait_seconds"
	hSchedSvc   = "salus_sched_service_seconds"
	hCoreSealed = "salus_core_sealed_job_seconds"
	hCoreBatch  = "salus_core_batch_seconds"
)

// regWindow is the difference between two snapshots of the process-wide
// metrics registry, which the gateway, the scheduler, the core job path
// and the owner's rpc client all record into.
type regWindow struct{ a, b metrics.Snapshot }

func openWindow() regWindow { return regWindow{a: metrics.Default().Snapshot()} }

func (w *regWindow) close() { w.b = metrics.Default().Snapshot() }

func (w regWindow) counter(name string) float64 {
	return float64(w.b.Counters[name] - w.a.Counters[name])
}

func (w regWindow) hcount(name string) float64 {
	return float64(w.b.Histograms[name].Count - w.a.Histograms[name].Count)
}

// meanMs is the window mean of a histogram, from its Sum and Count
// differences.
func (w regWindow) meanMs(name string) float64 {
	n := w.hcount(name)
	if n == 0 {
		return 0
	}
	return ms(w.b.Histograms[name].Sum-w.a.Histograms[name].Sum) / n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// quantile returns the q-quantile (nearest rank) of ds; failed
// operations enter as +Inf so they miss every latency limit.
func quantile(ds []float64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]float64(nil), ds...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean averages ds, leaving out failed operations (+Inf).
func mean(ds []float64) float64 {
	var t float64
	var n int
	for _, d := range ds {
		if !math.IsInf(d, 1) {
			t += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return t / float64(n)
}

// median is the middle value of ds, or the mean of the middle two.
func median(ds []float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]float64(nil), ds...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
