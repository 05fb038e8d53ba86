package main

import (
	"time"

	"sfsched/internal/xrand"
)

// arrival is one open-loop event: when it is due, as an offset from the start
// of the phase, and which tenant or session slot it targets.
type arrival struct {
	At     time.Duration
	Target int32
}

// rng returns the generator for one named input stream of a seed, so adding
// a stream never shifts the values another stream draws.
func rng(seed uint64, stream uint64) *xrand.Rand {
	return xrand.New(seed*0x9E3779B97F4A7C15 + stream)
}

// poissonSchedule draws Poisson arrivals at rate per second over span, each
// aimed at a target drawn uniformly from [0, targets). It is a pure function
// of its arguments: the schedule is fixed during set-up and nothing the
// system under test does can change it.
func poissonSchedule(seed, stream uint64, rate float64, span time.Duration, targets int) []arrival {
	r := rng(seed, stream)
	out := make([]arrival, 0, int(rate*span.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, arrival{At: at, Target: int32(r.Intn(targets))})
	}
}

// replay is the open-loop generator: it sleeps until each arrival is due and
// then calls fire with the arrival's index. It never waits on the system
// under test — fire must not block on completions — so the offered load is
// the schedule's, however slowly the system drains it. A stall inside fire
// delays later arrivals, which their due-time latency then includes.
func replay(arrivals []arrival, base time.Time, fire func(i int)) {
	for i, a := range arrivals {
		sleepUntil(base, a.At)
		fire(i)
	}
}
