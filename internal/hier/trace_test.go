package hier

// A seeded operation driver for the hierarchical scheduler, shared by the
// golden trace (which hashes every decision and final tag) and the invariant
// fuzzer (which checks the queue invariants after every operation).

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// traceDriver runs a random mix of class and thread operations against one
// Hier instance. Picked threads stay on their CPU until a later operation
// charges them, so picks see running threads the way a machine's would.
type traceDriver struct {
	h       *Hier
	p       int
	next    func(n int) int // a choice in [0, n)
	now     simtime.Time
	classes []*Class
	threads []*sched.Thread // every thread ever created, by ID-1
	running []*sched.Thread // per CPU, nil when idle
	hash    hash.Hash64
}

func newTraceDriver(p int, next func(n int) int) *traceDriver {
	d := &traceDriver{
		h:       New(p, 20*simtime.Millisecond),
		p:       p,
		next:    next,
		running: make([]*sched.Thread, p),
		hash:    fnv.New64a(),
	}
	d.classes = append(d.classes, d.h.Classes()...)
	for i, w := range []float64{4, 2, 1} {
		d.classes = append(d.classes, d.h.MustAddClass(fmt.Sprintf("c%d", i), w))
	}
	return d
}

func (d *traceDriver) fold(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.hash.Write(b[:])
}

// weight draws a thread or class weight: mostly small integers, sometimes
// fractional, so water-filling caps and ties both occur.
func (d *traceDriver) weight() float64 {
	if d.next(4) == 0 {
		return 0.25 * float64(1+d.next(16))
	}
	return float64(1 + d.next(8))
}

// pickState returns a random thread in the given state, or nil.
func (d *traceDriver) pickState(st sched.State) *sched.Thread {
	var cands []*sched.Thread
	for _, t := range d.threads {
		if t.State == st {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[d.next(len(cands))]
}

// charge ends t's dispatch, charging ran of service.
func (d *traceDriver) charge(t *sched.Thread, ran simtime.Duration) {
	d.now = d.now.Add(ran)
	d.h.Charge(t, ran, d.now)
	d.running[t.CPU] = nil
	t.LastCPU = t.CPU
	t.CPU = sched.NoCPU
}

// step performs one random operation and reports what it did.
func (d *traceDriver) step() (string, error) {
	switch op := d.next(100); {
	case op < 14: // arrival
		live := 0
		for _, t := range d.threads {
			if t.State != sched.Exited {
				live++
			}
		}
		if live >= 48 {
			return "arrival skipped", nil
		}
		w := d.weight()
		t := &sched.Thread{ID: len(d.threads) + 1, Weight: w, Phi: w,
			CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
		d.threads = append(d.threads, t)
		if c := d.next(len(d.classes) + 1); c < len(d.classes) {
			d.h.Assign(t, d.classes[c])
		}
		return fmt.Sprintf("add %d w=%g", t.ID, w), d.h.Add(t, d.now)
	case op < 24: // wakeup
		t := d.pickState(sched.Blocked)
		if t == nil {
			return "wakeup skipped", nil
		}
		t.State = sched.Runnable
		return fmt.Sprintf("wake %d", t.ID), d.h.Add(t, d.now)
	case op < 38: // block or exit
		t := d.pickState(sched.Runnable)
		if t == nil {
			return "depart skipped", nil
		}
		if t.Running() {
			d.charge(t, simtime.Duration(1+d.next(int(5*simtime.Millisecond))))
		}
		t.State = sched.Blocked
		if op >= 33 {
			t.State = sched.Exited
		}
		return fmt.Sprintf("%v %d", t.State, t.ID), d.h.Remove(t, d.now)
	case op < 45: // thread reweight, runnable or not
		var cands []*sched.Thread
		for _, t := range d.threads {
			if t.State != sched.Exited {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			return "setweight skipped", nil
		}
		t, w := cands[d.next(len(cands))], d.weight()
		return fmt.Sprintf("setweight %d %g", t.ID, w), d.h.SetWeight(t, w, d.now)
	case op < 49: // class reweight
		c, w := d.classes[d.next(len(d.classes))], d.weight()
		return fmt.Sprintf("setclassweight %s %g", c.Name(), w), d.h.SetClassWeight(c, w)
	case op < 75: // dispatch on a random CPU
		cpu := d.next(d.p)
		if d.running[cpu] != nil {
			return "pick skipped", nil
		}
		t := d.h.Pick(cpu, d.now)
		id := -1
		if t != nil {
			id = t.ID
			t.CPU = cpu
			d.running[cpu] = t
		}
		d.fold(uint64(int64(id)))
		d.fold(math.Float64bits(d.h.VirtualTime()))
		return fmt.Sprintf("pick cpu%d -> %d", cpu, id), nil
	default: // end a dispatch
		cpu := d.next(d.p)
		t := d.running[cpu]
		if t == nil {
			return "charge skipped", nil
		}
		d.charge(t, simtime.Duration(1+d.next(int(30*simtime.Millisecond))))
		return fmt.Sprintf("charge %d", t.ID), nil
	}
}

// sum folds the final tags of every thread into the trace hash.
func (d *traceDriver) sum() uint64 {
	for _, t := range d.threads {
		d.fold(math.Float64bits(t.Start))
		d.fold(math.Float64bits(t.Finish))
		d.fold(math.Float64bits(t.Phi))
		d.fold(uint64(t.Service))
	}
	return d.hash.Sum64()
}

// goldenHierTrace is the hash of hierGoldenTrace's decisions and final tags,
// recorded from the standalone hierarchical queue that predates hier's move
// onto core.SFS. A change to any pick, virtual time or tag changes it.
const goldenHierTrace uint64 = 0xf1cddb43311fea3c

func hierGoldenTrace(t *testing.T) uint64 {
	total := fnv.New64a()
	for _, p := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := xrand.New(1000*uint64(p) + seed)
			d := newTraceDriver(p, r.Intn)
			for i := 0; i < 3000; i++ {
				if what, err := d.step(); err != nil {
					t.Fatalf("p=%d seed=%d step %d (%s): %v", p, seed, i, what, err)
				}
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], d.sum())
			total.Write(b[:])
		}
	}
	return total.Sum64()
}

// TestHierGoldenTrace pins every hierarchical scheduling decision: seeded
// runs at p = 1, 2 and 4 mixing arrivals, wakeups, blocks, exits, thread and
// class reweights, picks and charges.
func TestHierGoldenTrace(t *testing.T) {
	if got := hierGoldenTrace(t); got != goldenHierTrace {
		t.Fatalf("trace hash %#x, want %#x", got, goldenHierTrace)
	}
}
