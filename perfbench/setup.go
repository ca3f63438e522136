package main

import (
	"fmt"
	"time"
)

// setupReps is how many times a run builds its serving stack; set-up time
// is their median.
const setupReps = 5

// builtStack is a ready stack plus what its set-up recorded.
type builtStack struct {
	*stack
	took     time.Duration
	attest   attestTimes
	boot     regWindow     // registry difference over the build
	modelled time.Duration // virtual time charged during the build
}

// buildStack builds, attests and warms one stack: warm runs the first
// jobs so per-partition sessions and lazy state exist before timing.
func buildStack(cfg stackConfig, warm func(*stack) error) (*builtStack, error) {
	b := &builtStack{boot: openWindow()}
	start := time.Now()
	st, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	b.stack = st
	if b.attest, err = st.attest(); err != nil {
		st.close()
		return nil, err
	}
	if err := warm(st); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.took = time.Since(start)
	b.boot.close()
	b.modelled = st.modelled()
	return b, nil
}

// buildStacks builds setupReps stacks one after another, keeps the last
// and reports the median build time in seconds.
func buildStacks(cfg stackConfig, warm func(*stack) error) (*builtStack, float64, error) {
	var took []float64
	var last *builtStack
	for i := 0; i < setupReps; i++ {
		if last != nil {
			last.close()
		}
		b, err := buildStack(cfg, warm)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, b.took.Seconds())
		last = b
	}
	return last, median(took), nil
}
