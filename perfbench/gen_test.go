package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The arrival schedule is a pure function of the seed: two generations are
// identical, another seed gives another schedule.
func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := poissonSchedule(7, 1, 3000, time.Second, 256)
	b := poissonSchedule(7, 1, 3000, time.Second, 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from one seed differ")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1, 3000, time.Second, 256)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(7, 2, 3000, time.Second, 256)) {
		t.Fatal("streams 1 and 2 of one seed gave the same schedule")
	}
}

// Arrivals are ordered, inside the span, aimed at valid targets, and their
// count matches the rate within five standard deviations.
func TestScheduleShape(t *testing.T) {
	const rate, targets = 3000.0, 256
	span := 2 * time.Second
	a := poissonSchedule(3, 1, rate, span, targets)
	mean := rate * span.Seconds()
	if d := math.Abs(float64(len(a)) - mean); d > 5*math.Sqrt(mean) {
		t.Fatalf("%d arrivals, want %.0f ± %.0f", len(a), mean, 5*math.Sqrt(mean))
	}
	for i, x := range a {
		if x.At < 0 || x.At >= span || (i > 0 && x.At < a[i-1].At) {
			t.Fatalf("arrival %d at %v out of order or outside [0, %v)", i, x.At, span)
		}
		if x.Target < 0 || x.Target >= targets {
			t.Fatalf("arrival %d targets %d", i, x.Target)
		}
	}
}

// The generator offers the schedule whatever the system does with it: a
// system that stalls the first submission for a while still receives every
// arrival once, in order, and nothing it does feeds back into when arrivals
// are due.
func TestReplayDoesNotDependOnCompletions(t *testing.T) {
	arrivals := poissonSchedule(5, 1, 2000, 100*time.Millisecond, 4)
	before := append([]arrival(nil), arrivals...)
	run := func(stall time.Duration) []int {
		var fired []int
		replay(arrivals, time.Now(), func(i int) {
			fired = append(fired, i)
			if i == 0 {
				time.Sleep(stall) // a system slow to accept work
			}
		})
		return fired
	}
	fast, slow := run(0), run(50*time.Millisecond)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("a stalled system changed which arrivals were offered")
	}
	for i, k := range fast {
		if k != i {
			t.Fatalf("arrival %d fired as %d", i, k)
		}
	}
	if !reflect.DeepEqual(arrivals, before) {
		t.Fatal("replay changed the schedule")
	}
}

// Each workload's inputs are generated during set-up from the seed alone.
func TestWorkloadInputsRepeat(t *testing.T) {
	a, b := buildOpenMixed(9, time.Second), buildOpenMixed(9, time.Second)
	a.r.Close()
	b.r.Close()
	if !reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Fatal("open-mixed: arrivals differ between two builds of one seed")
	}
	c, d := buildChurn(9, time.Second), buildChurn(9, time.Second)
	c.c.Close()
	d.c.Close()
	if !reflect.DeepEqual(c.arrivals, d.arrivals) {
		t.Fatal("cluster-churn: arrivals differ between two builds of one seed")
	}
	for i := range c.sess {
		if c.sess[i].weight != d.sess[i].weight || c.sess[i].reweight != d.sess[i].reweight {
			t.Fatalf("cluster-churn: session %d weights differ between two builds", i)
		}
	}
	s, u := buildSaturated(9), buildSaturated(9)
	s.r.Close()
	u.r.Close()
	for i := range s.ts {
		if s.ts[i].weight != u.ts[i].weight {
			t.Fatalf("saturated: tenant %d weight differs between two builds", i)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{1, "request", "", 0, 100},
		{1, "submit", "request", 10, 20},
		{1, "queued", "request", 20, 60},
		{1, "run", "request", 50, 90}, // overlaps queued by 10
		{2, "request", "", 0, 10},
	}
	got := selfTimes(spans)
	// request 1: 100 − |[10,90)| = 20 ns; request 2: 10 ns; in µs.
	if want := []float64{0.02, 0.01}; !reflect.DeepEqual(got["request"], want) {
		t.Fatalf("request self times %v, want %v", got["request"], want)
	}
	if want := []float64{0.04}; !reflect.DeepEqual(got["run"], want) {
		t.Fatalf("run self time %v, want %v", got["run"], want)
	}
}
