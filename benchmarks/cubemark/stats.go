package main

import (
	"slices"
	"time"
)

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the benchmark's acceptance check measures spread. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

var calibSink uint64

// calib times a fixed pure-Go kernel (xorshift scattered over 512 KiB)
// and returns its fastest of three runs in milliseconds. It says nothing
// about the code under test: it tells a reader whether the host was slow.
func calib() float64 {
	best := 0.0
	buf := make([]uint64, 1<<16)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 8_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&0xffff] += x
		}
		calibSink += buf[0]
		if ms := time.Since(start).Seconds() * 1e3; best == 0 || ms < best {
			best = ms
		}
	}
	return best
}
