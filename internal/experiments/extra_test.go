package experiments

import (
	"testing"

	"sfsched/internal/simtime"
)

// TestPartitionAlternative asserts the §1.2 argument quantitatively: static
// partitioning deviates from GMS by seconds under churn, periodic
// rebalancing reduces but does not eliminate the deviation, and SFS stays
// within a few quanta.
func TestPartitionAlternative(t *testing.T) {
	p := PartitionDefaults()
	r := Partition(p)
	lag := make(map[Kind]float64)
	jain := make(map[Kind]float64)
	for i, kind := range p.Kinds {
		lag[kind] = r.Col("max |lag| vs GMS")[i]
		jain[kind] = r.Col("Jain index")[i]
	}
	quanta := p.Quantum.Seconds()
	if lag[SFS] > 5*quanta {
		t.Fatalf("SFS lag %.3fs exceeds 5 quanta", lag[SFS])
	}
	if lag[Partitioned] < 10*lag[SFS] {
		t.Fatalf("static partitioning lag %.3fs not clearly worse than SFS %.3fs",
			lag[Partitioned], lag[SFS])
	}
	if lag[PartRebal] >= lag[Partitioned] {
		t.Fatalf("rebalancing did not help: %.3fs vs %.3fs",
			lag[PartRebal], lag[Partitioned])
	}
	if lag[PartRebal] <= lag[SFS] {
		t.Fatalf("infrequent rebalancing should not beat SFS: %.3fs vs %.3fs",
			lag[PartRebal], lag[SFS])
	}
	for kind, j := range jain {
		if j < 0.95 {
			t.Fatalf("%s Jain index %.4f implausibly low", kind, j)
		}
	}
}

// TestPartitionRenderNonEmpty exercises the Render path.
func TestPartitionRenderNonEmpty(t *testing.T) {
	p := PartitionDefaults()
	p.Horizon = simtime.Time(5 * simtime.Second)
	if out := Partition(p).Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestScaleP verifies the paper's §4.1 claim that SFS's efficacy holds on
// larger processor counts: the worst deviation from GMS stays within a few
// quanta from 2 through 16 CPUs.
func TestScaleP(t *testing.T) {
	r := ScaleP(ScalePDefaults(SFS))
	for i, lag := range r.Col("max lag (quanta)") {
		if lag > 6 {
			t.Fatalf("p=%s: lag %.2f quanta exceeds bound", r.Labels[i], lag)
		}
	}
	if out := r.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}
