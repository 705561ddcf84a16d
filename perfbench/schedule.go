package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"
)

// Request kinds of the serve workload.
const (
	hot   = "hot"   // the exact golden request: answered from the result cache
	fresh = "fresh" // golden request with a unique timeout_ms: runs the engine
)

// freshEvery makes one request in every block of freshEvery fresh, at a
// seeded position in the block, so fresh requests are about
// 1/freshEvery of the load and never bunch up.
const freshEvery = 5

// Fresh timeouts are drawn from [freshTimeoutMin, freshTimeoutMin+freshTimeoutSpan)
// milliseconds: far above any pool design's repair time, so the verdict
// is the golden one, and distinct, so every fresh request misses the
// result cache.
const (
	freshTimeoutMin  = 30_000
	freshTimeoutSpan = 30_000
)

// arrival is one scheduled request of the serve workload.
type arrival struct {
	At        time.Duration // due time from the start of the timed phase
	Kind      string
	Design    string
	TimeoutMS int64 // fresh only
}

// makeSchedule generates the open-loop request sequence of one run from
// the workload seed alone: rate*seconds arrivals, arrival i due at a
// seeded point of the i-th 1/rate slot. The fresh requests are the
// largest whole number of pool passes that fits one per block of
// freshEvery (one per block when not even one pass fits); hot and fresh
// requests each walk the pool in seeded permutations. So the engine work
// of a run is the same whatever the seed: only its order and timing
// change. A fresh timeout is redrawn until keep accepts it (nil keeps
// every one).
func makeSchedule(seed int64, rate float64, seconds int, pool []string, keep func(design string, timeoutMS int64) bool) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * float64(seconds))
	freshLeft := n / freshEvery / len(pool) * len(pool)
	if freshLeft == 0 {
		freshLeft = n / freshEvery
	}
	out := make([]arrival, n)
	slot := float64(time.Second) / rate
	walker := func() func() string {
		var perm []int
		return func() string {
			if len(perm) == 0 {
				perm = rng.Perm(len(pool))
			}
			d := pool[perm[0]]
			perm = perm[1:]
			return d
		}
	}
	nextHot, nextFresh := walker(), walker()
	usedTimeouts := map[int64]bool{}
	freshAt := -1
	for i := range out {
		if i%freshEvery == 0 && freshLeft > 0 {
			freshAt = i + rng.Intn(min(freshEvery, n-i))
		}
		a := &out[i]
		a.At = time.Duration((float64(i) + rng.Float64()) * slot)
		if i != freshAt || freshLeft == 0 {
			a.Kind, a.Design = hot, nextHot()
			continue
		}
		freshLeft--
		a.Kind, a.Design = fresh, nextFresh()
		for {
			t := freshTimeoutMin + rng.Int63n(freshTimeoutSpan)
			if !usedTimeouts[t] && (keep == nil || keep(a.Design, t)) {
				usedTimeouts[t] = true
				a.TimeoutMS = t
				break
			}
		}
	}
	return out
}

// writeSchedule renders a schedule one arrival per line.
func writeSchedule(w io.Writer, sched []arrival) error {
	for _, a := range sched {
		if _, err := fmt.Fprintf(w, "%d %s %s %d\n", a.At.Nanoseconds(), a.Kind, a.Design, a.TimeoutMS); err != nil {
			return err
		}
	}
	return nil
}
