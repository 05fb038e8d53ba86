package sfsched_test

// Facade tests of the cluster tier: NewCluster end to end through exported
// names only.

import (
	"testing"

	"sfsched"
)

// TestFacadeCluster exercises the cluster tier end to end through the
// facade: placement, the unified submit entry point, lockstep dispatch on
// the Manual machines, the rollups, and shutdown.
func TestFacadeCluster(t *testing.T) {
	clock := sfsched.NewFakeClock()
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines: 2, K: 2, Workers: 1, Clock: clock,
		QueueCap: 4, Manual: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Machines() != 2 {
		t.Fatalf("Machines() = %d, want 2", c.Machines())
	}
	a, err := c.Register("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine() == b.Machine() {
		t.Fatalf("two-choice placement stacked both tenants on machine %d", a.Machine())
	}
	for i := 0; i < 2; i++ {
		if err := a.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitTask(nil, sfsched.Preemptible(func(sfsched.SliceCtx) bool { return true })); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 2; tick++ {
		var ds []*sfsched.Dispatched
		for m := 0; m < c.Machines(); m++ {
			r := c.Node(m).(*sfsched.Runtime)
			if d := r.Dispatch(0); d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(sfsched.Millisecond)
		for _, d := range ds {
			d.Complete(true)
		}
	}
	stats := c.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d tenant stats, want 2", len(stats))
	}
	for _, st := range stats {
		if st.Service <= 0 {
			t.Errorf("tenant %s got no service", st.Name)
		}
	}
	if ms := c.MachineStats(); len(ms) != 2 {
		t.Fatalf("got %d machine stats, want 2", len(ms))
	}
	if jain := c.JainIndex(); jain <= 0 || jain > 1 {
		t.Fatalf("Jain index %v out of range", jain)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
