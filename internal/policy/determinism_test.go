package policy

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/trace"
)

// TestPoliciesDeterministic replays the same trace through two
// identically-seeded instances of every policy and requires identical
// statistics — reproducibility is a stated design goal (DESIGN.md).
func TestPoliciesDeterministic(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 150, Requests: 5000, Interarrival: trace.Pareto,
		VariableSizes: true, Seed: 4,
	})
	tr.AnnotateNext()
	capacity := tr.UniqueBytes() / 10
	run := func(name string) cache.Stats {
		p := MustNew(name, Options{Capacity: capacity, TrainWindow: tr.Duration() / 4, Seed: 9})
		c := cache.New(capacity, p)
		for _, r := range tr.Reqs {
			c.Handle(r)
		}
		return c.StatsSnapshot()
	}
	for _, name := range Names() {
		a := run(name)
		b := run(name)
		if a != b {
			t.Errorf("%s is nondeterministic: %+v vs %+v", name, a, b)
		}
	}
}

// TestPoliciesSurviveAdversarialPatterns throws degenerate request
// patterns at every policy: a single repeated key, a pure scan, and
// alternating hot/cold phases.
func TestPoliciesSurviveAdversarialPatterns(t *testing.T) {
	patterns := map[string]func() []cache.Request{
		"single-key": func() []cache.Request {
			var rs []cache.Request
			for i := 0; i < 1000; i++ {
				rs = append(rs, cache.Request{Time: int64(i), Key: 1, Size: 3})
			}
			return rs
		},
		"pure-scan": func() []cache.Request {
			var rs []cache.Request
			for i := 0; i < 1000; i++ {
				rs = append(rs, cache.Request{Time: int64(i), Key: trace.Key(i), Size: 3})
			}
			return rs
		},
		"phase-flip": func() []cache.Request {
			var rs []cache.Request
			for i := 0; i < 2000; i++ {
				k := trace.Key(i % 10)
				if i > 1000 {
					k = trace.Key(100 + i%10)
				}
				rs = append(rs, cache.Request{Time: int64(i), Key: k, Size: 3})
			}
			return rs
		},
	}
	for pname, gen := range patterns {
		reqs := gen()
		// Annotate next-use for the offline policies.
		tr := &trace.Trace{Reqs: reqs}
		tr.AnnotateNext()
		for _, name := range Names() {
			p := MustNew(name, Options{Capacity: 30, TrainWindow: 200, Seed: 2})
			c := cache.New(30, p)
			for _, r := range tr.Reqs {
				c.Handle(r)
			}
			if c.Used() > c.Capacity() {
				t.Errorf("%s on %s: capacity violated", name, pname)
			}
			st := c.StatsSnapshot()
			if st.Requests != int64(len(reqs)) {
				t.Errorf("%s on %s: lost requests", name, pname)
			}
		}
	}
}
