package main

import (
	"bytes"
	"testing"
)

func scheduleBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	pool := []string{"a", "b", "c", "d", "e", "f", "g"}
	if err := writeSchedule(&buf, makeSchedule(seed, 20, 10, pool, nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, b := scheduleBytes(t, 7), scheduleBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if bytes.Equal(a, scheduleBytes(t, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	pool := []string{"a", "b", "c", "d"}
	sched := makeSchedule(3, 10, 40, pool, nil)
	if len(sched) != 400 {
		t.Fatalf("got %d arrivals, want 400", len(sched))
	}
	counts := map[string]map[string]int{hot: {}, fresh: {}}
	timeouts := map[int64]bool{}
	for i, a := range sched {
		if i > 0 && a.At < sched[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		counts[a.Kind][a.Design]++
		if a.Kind == fresh {
			if a.TimeoutMS < freshTimeoutMin || a.TimeoutMS >= freshTimeoutMin+freshTimeoutSpan || timeouts[a.TimeoutMS] {
				t.Fatalf("fresh arrival %d has timeout %d: out of range or reused", i, a.TimeoutMS)
			}
			timeouts[a.TimeoutMS] = true
		}
	}
	if len(timeouts) != 400/freshEvery {
		t.Fatalf("got %d fresh arrivals, want %d", len(timeouts), 400/freshEvery)
	}
	// Seven designs: 80 fresh slots hold eleven whole passes.
	odd := makeSchedule(3, 10, 40, []string{"a", "b", "c", "d", "e", "f", "g"}, nil)
	nFresh := 0
	for _, a := range odd {
		if a.Kind == fresh {
			nFresh++
		}
	}
	if nFresh != 77 {
		t.Fatalf("got %d fresh arrivals over a 7-design pool, want 77", nFresh)
	}
	// 80 fresh and 320 hot arrivals walk a 4-design pool in whole
	// permutations, so every design appears equally often.
	for kind, byDesign := range counts {
		for _, d := range pool {
			if byDesign[d] != counts[kind][pool[0]] {
				t.Fatalf("%s arrivals are uneven across designs: %v", kind, byDesign)
			}
		}
	}
}

func TestScheduleKeepFiltersFreshTimeouts(t *testing.T) {
	pool := []string{"a", "b", "c"}
	even := func(design string, timeoutMS int64) bool { return timeoutMS%2 == 0 }
	sched := makeSchedule(5, 10, 20, pool, even)
	n := 0
	for i, a := range sched {
		if a.Kind == fresh {
			n++
			if !even(a.Design, a.TimeoutMS) {
				t.Fatalf("fresh arrival %d has timeout %d, which keep rejects", i, a.TimeoutMS)
			}
		}
	}
	if n != 39 {
		t.Fatalf("got %d fresh arrivals, want 39", n)
	}
}
