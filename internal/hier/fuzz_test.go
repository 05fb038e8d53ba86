package hier

import "testing"

// FuzzHierInvariants drives the trace driver's random class and thread
// operations from fuzz bytes and checks core's queue invariants — every
// stored surplus current against the class-tree φ, v the minimum start tag,
// some thread at zero surplus — after each operation.
func FuzzHierInvariants(f *testing.F) {
	f.Add(uint8(2), []byte{3, 70, 90, 1, 60, 12, 55, 80, 40, 46, 99, 20, 5, 61})
	f.Add(uint8(4), []byte("hierarchical surplus fair scheduling"))
	f.Add(uint8(1), []byte{0, 0, 0, 30, 30, 60, 60, 95, 95, 46, 47, 10, 60, 99})
	f.Fuzz(func(t *testing.T, cpus uint8, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b % n
		}
		d := newTraceDriver(1+int(cpus%4), next)
		for i := 0; pos < len(data) && i < 2000; i++ {
			what, err := d.step()
			if err != nil {
				t.Fatalf("step %d (%s): %v", i, what, err)
			}
			if err := d.h.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v", i, what, err)
			}
		}
	})
}
