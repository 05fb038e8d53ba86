// Package hier implements two-level hierarchical surplus fair scheduling —
// the extension the paper's §5 names as an open research problem ("SFS is a
// single-level scheduler... The design of hierarchical schedulers for
// multiprocessor environments remains an open research problem").
//
// Threads are aggregated into weighted classes; CPU bandwidth divides among
// classes in proportion to class weights, then within each class among its
// threads in proportion to thread weights. The multiprocessor wrinkle is
// feasibility at both levels: a thread's rate is capped at one CPU, and a
// class's rate is capped at min(runnable threads, p) CPUs.
//
// # Design: flatten the tree into rates
//
// A naive composition — pick a class by class-level SFS, then delegate to a
// per-class inner SFS — cannot express allocations like "thread A holds one
// CPU continuously while its sibling B receives a third of another": the
// class level sees only aggregate class service, so whichever sibling
// happens to hold the slot keeps it, and intra-class shares drift toward
// equality (we measured exactly that before switching designs). Instead,
// this package computes every thread's *hierarchical GMS rate* directly by
// nested water-filling (readjust.WaterFill):
//
//  1. class rates: capacity p divided by class weights, per-class cap
//     min(runnable_c, p);
//  2. thread rates: each class's rate divided by thread weights, per-thread
//     cap 1 CPU.
//
// The resulting rate is the thread's instantaneous weight φ_i in a single
// flat surplus-fair queue: start tags advance by q/φ_i and the least-surplus
// thread runs, exactly as in flat SFS. Since Σφ_i = min(p, n) and each
// φ_i ≤ 1, the flat scheduler delivers service proportional to φ — which is
// by construction the hierarchical GMS allocation. Figure 2's readjustment
// is the special case of this tree with every thread in its own class.
//
// That queue is core.SFS itself: a Hier is a core.SFS whose φ values come
// from this package's nested water-fill (core.WithPhiSource) instead of
// Figure 2, so tags, virtual time, the lazy-surplus pick and every
// capability view are core's. The water-fill reuses scratch buffers and
// skips classes whose rate and membership are unchanged since the previous
// pass — on a class-partitioned workload the common arrival/departure only
// recomputes the affected class — and hands core only the threads whose φ
// changed.
package hier

import (
	"fmt"

	"sfsched/internal/core"
	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Class is a scheduling class: a weight and the set of member threads.
type Class struct {
	name    string
	weight  float64
	phi     float64 // readjusted class rate, in CPUs
	members []*sched.Thread
	service simtime.Duration

	dirty  bool    // membership or a member weight changed since last pass
	maxPhi float64 // largest member φ after the last recomputation
	tw, tc []float64
	rates  []float64
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Weight returns the class weight.
func (c *Class) Weight() float64 { return c.weight }

// Rate returns the class's current GMS rate in CPUs.
func (c *Class) Rate() float64 { return c.phi }

// Service returns the total CPU service delivered to the class's threads so
// far, in seconds.
func (c *Class) Service() float64 { return c.service.Seconds() }

// Hier is a two-level hierarchical SFS scheduler: core.SFS with φ from the
// class tree. Not safe for concurrent use.
type Hier struct {
	*core.SFS
	classes []*Class
	byName  map[string]*Class
	assign  map[*sched.Thread]*Class
	def     *Class

	onPhi  func(*sched.Thread) // core's φ-change hook
	maxPhi float64             // largest runnable φ after the last pass

	// Readjustment scratch, reused across passes.
	classFiller  readjust.Filler
	threadFiller readjust.Filler
	active       []*Class
	weights      []float64
	caps         []float64
	rates        []float64
}

// New returns a hierarchical scheduler for p processors with a default
// class of weight 1 (threads not explicitly assigned go there). A quantum
// <= 0 selects core.DefaultQuantum.
func New(p int, quantum simtime.Duration) *Hier {
	h := &Hier{
		byName: make(map[string]*Class),
		assign: make(map[*sched.Thread]*Class),
	}
	h.SFS = core.New(p, core.WithQuantum(quantum), core.WithPhiSource((*classRates)(h)))
	h.def = h.MustAddClass("default", 1)
	return h
}

// AddClass creates a scheduling class. Class weights, like thread weights,
// must be positive.
func (h *Hier) AddClass(name string, weight float64) (*Class, error) {
	if !sched.ValidWeight(weight) {
		return nil, fmt.Errorf("%w: %g", sched.ErrBadWeight, weight)
	}
	if _, dup := h.byName[name]; dup {
		return nil, fmt.Errorf("hier: duplicate class %q", name)
	}
	c := &Class{name: name, weight: weight, phi: weight}
	h.classes = append(h.classes, c)
	h.byName[name] = c
	return c, nil
}

// MustAddClass is AddClass for static configuration.
func (h *Hier) MustAddClass(name string, weight float64) *Class {
	c, err := h.AddClass(name, weight)
	if err != nil {
		panic(err)
	}
	return c
}

// Assign routes a thread to a class; call before Add. Unassigned threads go
// to the default class.
func (h *Hier) Assign(t *sched.Thread, c *Class) { h.assign[t] = c }

// ClassOf returns the class a thread is (or would be) scheduled in.
func (h *Hier) ClassOf(t *sched.Thread) *Class {
	if c, ok := h.assign[t]; ok {
		return c
	}
	return h.def
}

// SetClassWeight changes a class weight at runtime.
func (h *Hier) SetClassWeight(c *Class, w float64) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	c.weight = w
	h.fill()
	return nil
}

// Classes returns the configured classes (including the default class).
func (h *Hier) Classes() []*Class { return append([]*Class(nil), h.classes...) }

// Name implements sched.Scheduler.
func (h *Hier) Name() string { return "hier-SFS" }

// Hier implements the full capability set the sharded runtime can exploit.
// Class assignment does not travel with a migrating thread: the destination
// instance schedules it in whatever class its own Assign table names.
var (
	_ sched.Scheduler       = (*Hier)(nil)
	_ sched.VirtualTimer    = (*Hier)(nil)
	_ sched.LagReporter     = (*Hier)(nil)
	_ sched.FrameTranslator = (*Hier)(nil)
	_ sched.Preempter       = (*Hier)(nil)
	_ sched.InterimCharger  = (*Hier)(nil)
)

// Charge implements sched.Scheduler: core's F = S + q/φ with the
// hierarchical φ, plus the class's service account.
func (h *Hier) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	h.SFS.Charge(t, ran, now)
	h.ClassOf(t).service += ran
}

// InterimCharge implements sched.InterimCharger by delegating to Charge: the
// hierarchical tag advance ran/φ is linear in ran, so mid-slice installments
// compose exactly with the boundary charge for the remainder.
func (h *Hier) InterimCharge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	h.Charge(t, ran, now)
}

// classRates is the Hier seen as core's φ source. It is a separate type so
// that Join, Leave and Reweight stay out of Hier's method set.
type classRates Hier

func (r *classRates) OnPhiChange(fn func(*sched.Thread)) { r.onPhi = fn }

func (r *classRates) MaxPhi() float64 { return r.maxPhi }

// Join adds t to its class's members.
func (r *classRates) Join(t *sched.Thread) bool {
	h := (*Hier)(r)
	c := h.ClassOf(t)
	c.members = append(c.members, t)
	c.dirty = true
	return h.fill()
}

// Leave drops t from its class's members, and forgets the class assignment
// of a thread that exited.
func (r *classRates) Leave(t *sched.Thread) bool {
	h := (*Hier)(r)
	c := h.ClassOf(t)
	for i, m := range c.members {
		if m == t {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	c.dirty = true
	if t.State == sched.Exited {
		delete(h.assign, t)
	}
	return h.fill()
}

// Reweight recomputes t's class after t's weight changed.
func (r *classRates) Reweight(t *sched.Thread) {
	h := (*Hier)(r)
	h.ClassOf(t).dirty = true
	h.fill()
}

// fill recomputes runnable threads' φ as their hierarchical GMS rates:
// nested water-filling, classes first, then threads within each class, and
// reports whether any φ changed. A class whose rate is unchanged and whose
// membership and member weights are untouched since the previous pass keeps
// its thread rates — water-filling is deterministic, so skipping the
// recomputation is exact, and an arrival/departure in one class that leaves
// sibling rates unchanged costs only that class's pass.
func (h *Hier) fill() bool {
	p := float64(h.NumCPU())
	h.active = h.active[:0]
	h.weights = h.weights[:0]
	h.caps = h.caps[:0]
	for _, c := range h.classes {
		if len(c.members) == 0 {
			c.dirty = false
			continue
		}
		h.active = append(h.active, c)
		h.weights = append(h.weights, c.weight)
		h.caps = append(h.caps, min(float64(len(c.members)), p))
	}
	h.maxPhi = 0
	if len(h.active) == 0 {
		return false
	}
	h.rates = h.classFiller.Fill(h.rates, h.weights, h.caps, p)
	changed := false
	for i, c := range h.active {
		if c.dirty || c.phi != h.rates[i] {
			c.phi = h.rates[i]
			c.tw = c.tw[:0]
			c.tc = c.tc[:0]
			for _, t := range c.members {
				c.tw = append(c.tw, t.Weight)
				c.tc = append(c.tc, 1) // a thread can hold at most one CPU
			}
			c.rates = h.threadFiller.Fill(c.rates, c.tw, c.tc, c.phi)
			c.maxPhi = 0
			for j, t := range c.members {
				if t.Phi != c.rates[j] {
					t.Phi = c.rates[j]
					h.onPhi(t)
					changed = true
				}
				c.maxPhi = max(c.maxPhi, t.Phi)
			}
			c.dirty = false
		}
		h.maxPhi = max(h.maxPhi, c.maxPhi)
	}
	return changed
}
