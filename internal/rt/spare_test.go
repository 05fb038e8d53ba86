package rt

import "testing"

// TestSparePoolFollowsEnforce pins the derived spare pool: spare workers
// only ever take lanes lent by enforcer handoffs, so a concurrent runtime
// parks one spare per worker (on the worker's own shard) when Enforce is
// armed and none otherwise, and a Manual runtime never has spares.
func TestSparePoolFollowsEnforce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		spares bool
	}{
		{"concurrent", Config{Workers: 3, Shards: 2}, false},
		{"concurrent-enforce", Config{Workers: 3, Shards: 2, Enforce: true}, true},
		{"manual-enforce", Config{Workers: 3, Shards: 2, Enforce: true, Manual: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.cfg)
			defer r.Close()
			want := tc.cfg.Workers
			if tc.spares {
				want *= 2
			}
			if got := len(r.dslots); got != want {
				t.Fatalf("%d dispatch slots, want %d", got, want)
			}
			perShard := map[*shard]int{}
			for _, sh := range r.spareShard {
				perShard[sh]++
			}
			for _, sh := range r.shards {
				want := 0
				if tc.spares {
					want = sh.workers
				}
				if perShard[sh] != want {
					t.Errorf("shard %d: %d spares, want %d", sh.id, perShard[sh], want)
				}
			}
		})
	}
}
