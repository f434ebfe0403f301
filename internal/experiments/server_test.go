package experiments

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/sim"
)

// TestLiveReplayPricedByModel: the Fig. 12 / Table 3 live replay serves
// what the simulator serves, and prices it with the simulator's §5.1.4
// model. Its lookup counters equal sim.Run's on the same trace and
// capacity (the engine-side fields are not visible on the wire), and
// every latency sample is its request's ServiceTime plus a round trip
// no longer than the longest one measured.
func TestLiveReplayPricedByModel(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP replays of the quick Fig. 12 trace")
	}
	r := NewRunner(Config{Quick: true, Seed: 42})
	tr := r.serverTrace()
	capacity := capFor(tr, 0.05)
	model := sim.CDNModel()
	for _, name := range []string{"raven", "lru"} {
		t.Run(name, func(t *testing.T) {
			// A fresh instance per replay: the live one, sim.Run's, and
			// the engine loop that records each request's hit.
			o := policy.Options{Capacity: capacity}
			if name == "raven" {
				o = r.servedOpts(tr, capacity)
			}
			fresh := func() cache.Policy { return policy.MustNew(name, o) }
			res, err := r.serverRun(fresh(), tr, capacity)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := sim.Run(tr, 1, cache.SingleFactory(fresh()), sim.Options{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			s := simRes.Stats
			want := cache.Stats{Requests: s.Requests, Hits: s.Hits, ReqBytes: s.ReqBytes, HitBytes: s.HitBytes}
			if res.Stats != want {
				t.Errorf("replay stats %+v, sim.Run %+v", res.Stats, want)
			}

			c, err := cache.NewSharded(capacity, 1, cache.SingleFactory(fresh()))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Latency) != tr.Len() {
				t.Fatalf("%d latency samples for %d requests", len(res.Latency), tr.Len())
			}
			for i, req := range tr.Reqs {
				svc := model.ServiceTime(c.Handle(req), req.Size)
				if wire := res.Latency[i] - svc; wire < 0 || wire > res.MaxWire {
					t.Fatalf("request %d: latency %v is service time %v plus %v, want plus [0, %v]",
						i, res.Latency[i], svc, wire, res.MaxWire)
				}
			}
		})
	}
}
