package main

import (
	"math/rand"
	"time"
)

// The reference kernel measures how fast the host runs at the moment:
// a fixed discrete-event loop (a binary heap of timed events and a map
// of per-key counters, as in the simulator's core) that calls no code of
// the program, so no change to the program can move its time. It runs
// after set-up and after every pass; a pass's host factor is refNominal
// over the mean of the kernel times on either side of it.
//
// On a shared host the speed of the same code drifts in phases of tens
// of seconds to minutes (cache contention from other tenants: a 1 MB
// pointer chase varies 2x while an ALU loop stays within 4%). The time
// metrics are pass times multiplied by the host factor, so they read in
// seconds of a host on which the kernel takes refNominal.
const refNominal = 0.1

// Kernel size: refEvents events pending, refKeys counter keys; each run
// does refWarm untimed steps, which bring the heap and most of the map
// back into cache whatever the pass before it left there, then times
// refSteps steps.
const (
	refEvents = 20000
	refKeys   = 50000
	refWarm   = 100000
	refSteps  = 400000
)

type refEvent struct {
	at  float64
	key int32
}

// refState is allocated once, so the kernel itself allocates nothing and
// the collector (whose work depends on the program's live heap) stays
// out of its time.
var refState struct {
	heap   []refEvent
	counts map[int32]int64
}

// refKernel runs the reference kernel once and returns its timed part.
func refKernel() time.Duration {
	if refState.counts == nil {
		refState.heap = make([]refEvent, 0, refEvents)
		refState.counts = make(map[int32]int64, refKeys)
	}
	rng := rand.New(rand.NewSource(1))
	h := refState.heap[:0]
	for k := 0; k < refEvents; k++ {
		h = refPush(h, refEvent{at: rng.Float64(), key: int32(k)})
	}
	refRun(h, rng, refWarm)
	t0 := time.Now()
	refRun(h, rng, refSteps)
	return time.Since(t0)
}

// refRun pops the earliest event, counts it, and schedules a successor,
// n times.
func refRun(h []refEvent, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		e := h[0]
		refState.counts[e.key] += int64(i)
		h[0] = refEvent{at: e.at + rng.Float64(), key: int32(rng.Intn(refKeys))}
		refDown(h)
	}
}

func refPush(h []refEvent, e refEvent) []refEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func refDown(h []refEvent) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
