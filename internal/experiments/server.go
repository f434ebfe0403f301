package experiments

import (
	"fmt"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/server"
	"raven/internal/sim"
	"raven/internal/stats"
	"raven/internal/trace"
)

// serverRun drives one live TCP replay of a Wikimedia-like trace
// against internal/server with the given policy, pricing each request
// with the §5.1.4 CDN model on top of its measured round trip.
func (r *Runner) serverRun(p cache.Policy, tr *trace.Trace, capacity int64) (*server.ReplayResult, error) {
	srv, err := server.New(server.Config{
		Capacity:  capacity,
		NewPolicy: cache.SingleFactory(p),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := server.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Replay(tr, 20, sim.CDNModel())
}

func (r *Runner) serverTrace() *trace.Trace {
	key := "server/wikimedia"
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.traces[key]; ok {
		return t
	}
	scale := 0.12 * r.Cfg.Scale
	if r.Cfg.Quick {
		scale = 0.02
	}
	t := trace.ProductionTrace(trace.Wikimedia19, scale, r.Cfg.Seed+5)
	r.traces[key] = t
	return t
}

// servedOpts is the Raven ravencached serves (policy.Served) with the
// live replay's deployment facts: its capacity, a sixth of the trace as
// the training window and the suite's seed. The decision budget is off,
// as TestServedEqualsSimulated runs the preset, so the replay is a
// function of the trace.
func (r *Runner) servedOpts(t *trace.Trace, capacity int64) policy.Options {
	o := policy.Served()
	o.Capacity = capacity
	o.TrainWindow = t.Duration() / 6
	o.Seed = r.Cfg.Seed
	o.DecisionBudget = 0
	return o
}

// liveReplays replays the server trace over TCP against the served
// Raven and against the unmodified-ATS stand-in (the same server with
// LRU), at a 5% cache.
func (r *Runner) liveReplays() (rv, ats *server.ReplayResult, err error) {
	t := r.serverTrace()
	capacity := capFor(t, 0.05)
	rv, err = r.serverRun(policy.MustNew("raven", r.servedOpts(t, capacity)), t, capacity)
	if err != nil {
		return nil, nil, fmt.Errorf("raven server run: %w", err)
	}
	ats, err = r.serverRun(policy.MustNew("lru", policy.Options{Capacity: capacity}), t, capacity)
	if err != nil {
		return nil, nil, fmt.Errorf("ats server run: %w", err)
	}
	return rv, ats, nil
}

// Fig12 reproduces Fig. 12: hit ratios of the served Raven vs an
// unmodified-ATS stand-in (the same TCP server with LRU), over time.
func (r *Runner) Fig12() *Report {
	rep := &Report{ID: "fig12", Title: "Served Raven vs unmodified ATS over TCP (Fig. 12)"}
	rep.Header = []string{"requests", "raven OHR", "raven BHR", "ats OHR", "ats BHR"}
	rres, ares, err := r.liveReplays()
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
		return rep
	}
	n := min(len(rres.Curve), len(ares.Curve))
	for i := 0; i < n; i++ {
		rep.Add(rres.Curve[i].Requests,
			rres.Curve[i].OHR, rres.Curve[i].BHR,
			ares.Curve[i].OHR, ares.Curve[i].BHR)
	}
	rep.Notes = append(rep.Notes,
		"live TCP replay; the served Raven trails ATS while its admission doorkeeper turns first sightings away, then pulls ahead after its first training window (§5.4)")
	return rep
}

// Table3 reproduces Table 3: resource usage of the served Raven vs
// unmodified ATS in the live server experiment. Latency and throughput
// are the §5.1.4 model plus the measured round trip, throughput as
// sim.Run defines it (requests over the summed latency); the longest
// round trip shows any stall the server took inline.
func (r *Runner) Table3() *Report {
	rep := &Report{ID: "tab3", Title: "Served Raven resource usage (Table 3), §5.1.4 delays plus measured wire time"}
	rep.Header = []string{"metric", "raven", "ats"}
	rres, ares, err := r.liveReplays()
	if err != nil {
		rep.Notes = append(rep.Notes, err.Error())
		return rep
	}
	rlat, alat := latencyMs(rres), latencyMs(ares)
	ms := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	mb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	rps := func(s stats.Summary) string { return fmt.Sprintf("%.1f", 1e3/s.Mean) }
	rep.Add("P90 latency (ms)", ms(rlat.P90), ms(alat.P90))
	rep.Add("P99 latency (ms)", ms(rlat.P99), ms(alat.P99))
	rep.Add("avg latency (ms)", ms(rlat.Mean), ms(alat.Mean))
	rep.Add("OHR", rres.Stats.OHR(), ares.Stats.OHR())
	rep.Add("BHR", rres.Stats.BHR(), ares.Stats.BHR())
	rep.Add("backend MB", mb(rres.Stats.MissBytes()), mb(ares.Stats.MissBytes()))
	rep.Add("requests/s (serial)", rps(rlat), rps(alat))
	rep.Add("max wire RTT (ms)", ms(float64(rres.MaxWire)/1e6), ms(float64(ares.MaxWire)/1e6))
	return rep
}

// latencyMs summarizes a replay's per-request latencies in ms.
func latencyMs(res *server.ReplayResult) stats.Summary {
	ms := make([]float64, len(res.Latency))
	for i, d := range res.Latency {
		ms[i] = float64(d) / 1e6
	}
	return stats.Summarize(ms)
}
