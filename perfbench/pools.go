package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"salus/internal/accel"
)

// item is one job input with the output the kernel must produce for it.
type item struct {
	params [4]uint64
	input  []byte
	want   []byte
}

// makePool generates n Conv h×w×c inputs from rng and computes each
// expected output once with Kernel.Compute, so no ground truth runs while
// the system is under load.
func makePool(rng *rand.Rand, n, h, w, c int) ([]item, error) {
	pool := make([]item, n)
	for i := range pool {
		wl := accel.GenConv(h, w, c, rng.Int63())
		want, err := wl.Kernel.Compute(wl.Params, wl.Input)
		if err != nil {
			return nil, fmt.Errorf("ground truth for %dx%dx%d input %d: %w", h, w, c, i, err)
		}
		pool[i] = item{params: wl.Params, input: wl.Input, want: want}
	}
	return pool, nil
}

// matches compares an opened output with ground truth byte for byte.
func (it *item) matches(out []byte) bool { return bytes.Equal(out, it.want) }
