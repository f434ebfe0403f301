package experiments

import (
	"fmt"

	"raven/internal/cache"
	"raven/internal/core"
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

func (r *Runner) serverPolicies(t *trace.Trace, capacity int64) (ravenPol, atsPol cache.Policy) {
	rc := core.Config{
		TrainWindow: t.Duration() / 6,
		Capacity:    capacity,
		Seed:        r.Cfg.Seed + 21,
	}
	r.trainShape(&rc, 20, 4)
	return core.New(rc), policy.MustNew("lru", policy.Options{Capacity: capacity})
}

// Fig12 reproduces Fig. 12: hit ratios of the Raven prototype vs an
// unmodified-ATS stand-in (the same TCP server with LRU), over time.
func (r *Runner) Fig12() *Report {
	rep := &Report{ID: "fig12", Title: "Raven prototype vs unmodified ATS over TCP (Fig. 12)"}
	rep.Header = []string{"requests", "raven OHR", "raven BHR", "ats OHR", "ats BHR"}
	t := r.serverTrace()
	capacity := capFor(t, 0.05)
	rv, ats := r.serverPolicies(t, capacity)

	rres, err := r.serverRun(rv, t, capacity)
	if err != nil {
		rep.Notes = append(rep.Notes, "raven server run failed: "+err.Error())
		return rep
	}
	ares, err := r.serverRun(ats, t, capacity)
	if err != nil {
		rep.Notes = append(rep.Notes, "ats server run failed: "+err.Error())
		return rep
	}
	n := len(rres.Curve)
	if len(ares.Curve) < n {
		n = len(ares.Curve)
	}
	for i := 0; i < n; i++ {
		rep.Add(rres.Curve[i].Requests,
			rres.Curve[i].OHR, rres.Curve[i].BHR,
			ares.Curve[i].OHR, ares.Curve[i].BHR)
	}
	rep.Notes = append(rep.Notes,
		"live TCP replay; Raven starts as LRU and pulls ahead after its first training window (§5.4)")
	return rep
}

// Table3 reproduces Table 3: resource usage of the Raven prototype vs
// unmodified ATS in the live server experiment. Latency and throughput
// are the §5.1.4 model plus the measured round trip, throughput as
// sim.Run defines it (requests over the summed latency); the longest
// round trip shows any stall the server took inline.
func (r *Runner) Table3() *Report {
	rep := &Report{ID: "tab3", Title: "Prototype resource usage (Table 3), §5.1.4 delays plus measured wire time"}
	rep.Header = []string{"metric", "raven", "ats"}
	t := r.serverTrace()
	capacity := capFor(t, 0.05)
	rv, ats := r.serverPolicies(t, capacity)

	rres, err1 := r.serverRun(rv, t, capacity)
	ares, err2 := r.serverRun(ats, t, capacity)
	if err1 != nil || err2 != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("server error: %v %v", err1, err2))
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
