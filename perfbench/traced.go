package main

import (
	"fmt"
	"runtime"
	"time"
)

// tracedStack is a stack built with the pass-through tap installed; a
// traced serving run measures its per-layer metrics on one.
type tracedStack struct {
	*builtStack
	tap   *frameTap
	spans *spanLog
}

func newTracedStack(cfg stackConfig, warm func(*stack) error) (*tracedStack, error) {
	origin := time.Now()
	t := &tracedStack{tap: newFrameTap(origin), spans: newSpanLog(origin)}
	cfg.tap = t.tap
	b, err := buildStack(cfg, warm)
	if err != nil {
		return nil, err
	}
	t.builtStack = b
	return t, nil
}

// observe runs one traced segment of a serving workload and reports the
// layers every serving workload shares: rpc, scheduler, shell and the
// stack's own set-up boot. run returns the operations it completed and
// the jobs within them. The registry window and the frames the tap saw
// are returned for the workload's own layers.
func (t *tracedStack) observe(r *report, run func() (ops, jobs float64)) (regWindow, []frameEvent) {
	runtime.GC() // the discarded set-up stacks are garbage of the benchmark's own
	before := t.mgr.Stats()
	txns0, bytes0 := t.shellTxns()
	reg := openWindow()
	from := time.Now()
	ops, jobs := run()
	reg.close()
	frames := t.tap.since(from)
	txns1, bytes1 := t.shellTxns()
	rpcLayers(r, reg, ops)
	schedLayers(r, reg, jobs, before, t.mgr.Stats())
	shellLayers(r, frames, ops, float64(txns1-txns0), float64(bytes1-bytes0), float64(t.retainedBytes()))
	setupBootLayers(r, t.builtStack)
	return reg, frames
}

// finishTrace gives the layers the workload does not exercise the value 0
// and writes the run's spans and frames.
func finishTrace(r *report, o options, workload string, spans *spanLog, tap *frameTap) error {
	fillLayers(r)
	path, err := writeTrace(o.outDir, workload, o.seed, spans, tap)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Println("spans written to", path)
	return nil
}
