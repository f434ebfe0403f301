package experiments

import (
	"fmt"
	"time"

	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

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
// replay's deployment facts: its capacity, a sixth of the trace as the
// training window and the suite's seed. The decision budget is off, as
// TestServedEqualsSimulated runs the preset, so the replay is a
// function of the trace.
func (r *Runner) servedOpts(t *trace.Trace, capacity int64) policy.Options {
	o := policy.Served()
	o.Capacity = capacity
	o.TrainWindow = t.Duration() / 6
	o.Seed = r.Cfg.Seed
	o.DecisionBudget = 0
	return o
}

// servedRun replays the server trace at a 5% cache through sim.Run,
// priced by the §5.1.4 CDN model, once per policy: "raven" is the
// served Raven (servedOpts), "lru" the unmodified-ATS stand-in.
// TestServedEqualsSimulated holds the wire to this replay request by
// request, so it is what the TCP server would serve.
func (r *Runner) servedRun(name string) *sim.Result {
	t := r.serverTrace()
	capacity := capFor(t, 0.05)
	return r.memo("served|"+name, t, name, capacity, func() *sim.Result {
		o := policy.Options{Capacity: capacity}
		if name == "raven" {
			o = r.servedOpts(t, capacity)
		}
		return r.simulate(t, policy.MustNew(name, o), sim.Options{Capacity: capacity, Net: sim.CDNModel(), Seed: r.Cfg.Seed})
	})
}

// Fig12 reproduces Fig. 12: hit ratios of the served Raven vs an
// unmodified-ATS stand-in (LRU), over time.
func (r *Runner) Fig12() *Report {
	rep := &Report{ID: "fig12", Title: "Served Raven vs unmodified ATS (Fig. 12)"}
	rep.Header = []string{"requests", "raven OHR", "raven BHR", "ats OHR", "ats BHR"}
	rv, ats := r.servedRun("raven"), r.servedRun("lru")
	for i := range min(len(rv.Curve), len(ats.Curve)) {
		rep.Add(rv.Curve[i].Requests,
			rv.Curve[i].OHR(), rv.Curve[i].BHR(),
			ats.Curve[i].OHR(), ats.Curve[i].BHR())
	}
	rep.Notes = append(rep.Notes,
		"the served Raven trails ATS while its admission doorkeeper turns first sightings away, then pulls ahead after its first training window (§5.4)")
	return rep
}

// Table3 reproduces Table 3: resource usage of the served Raven vs
// unmodified ATS on Fig. 12's replays. Latency, backend traffic and
// serial throughput are sim.Run's §5.1.4 model, as in Fig. 10 and
// Table 2.
func (r *Runner) Table3() *Report {
	rep := &Report{ID: "tab3", Title: "Served Raven resource usage (Table 3), §5.1.4 delays plus measured eviction compute"}
	rep.Header = []string{"metric", "raven", "ats"}
	rv, ats := r.servedRun("raven"), r.servedRun("lru")
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1e3) }
	mb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	rps := func(n sim.NetResult) string { return fmt.Sprintf("%.1f", n.ThroughputKRPS*1e3) }
	rep.Add("P90 latency (ms)", ms(rv.Net.P90Latency), ms(ats.Net.P90Latency))
	rep.Add("P99 latency (ms)", ms(rv.Net.P99Latency), ms(ats.Net.P99Latency))
	rep.Add("avg latency (ms)", ms(rv.Net.AvgLatency), ms(ats.Net.AvgLatency))
	rep.Add("OHR", rv.OHR, ats.OHR)
	rep.Add("BHR", rv.BHR, ats.BHR)
	rep.Add("backend MB", mb(rv.Net.BackendBytes), mb(ats.Net.BackendBytes))
	rep.Add("requests/s (serial)", rps(rv.Net), rps(ats.Net))
	return rep
}
