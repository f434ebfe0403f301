package experiments

import (
	"fmt"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/policy"
	"raven/internal/server"
	"raven/internal/trace"
)

// serverDelayScale compresses the §5.1.4 testbed delays so the live
// TCP experiment finishes quickly: 1/100 of the paper's RTTs. Reported
// latencies are scaled back up for comparability.
const serverDelayScale = 100

// serverRun drives one live TCP replay of a Wikimedia-like trace
// against internal/server with the given policy.
func (r *Runner) serverRun(p cache.Policy, tr *trace.Trace, capacity int64) (*server.ReplayResult, error) {
	srv, err := server.New(server.Config{
		Capacity:    capacity,
		NewPolicy:   cache.SingleFactory(p),
		CacheDelay:  10 * time.Millisecond / serverDelayScale,
		OriginDelay: 100 * time.Millisecond / serverDelayScale,
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
	return cl.Replay(tr, 20)
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
		TrainWindow:       t.Duration() / 6,
		SampleBudgetBytes: 5 * capacity,
		Seed:              r.Cfg.Seed + 21,
	}
	r.trainShape(&rc, 20, 4)
	if r.Cfg.Quick {
		rc.MaxTrainObjects = 600
		rc.ResidualSamples = 30
	}
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
// unmodified ATS in the live server experiment.
func (r *Runner) Table3() *Report {
	rep := &Report{ID: "tab3", Title: "Prototype resource usage (Table 3), delays scaled 1/100 then reported at paper scale"}
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
	ms := func(ns float64) string {
		return fmt.Sprintf("%.2f", ns*serverDelayScale/1e6) // scale back to paper units
	}
	rep.Add("P90 latency (ms)", ms(rres.Latency.P90), ms(ares.Latency.P90))
	rep.Add("P99 latency (ms)", ms(rres.Latency.P99), ms(ares.Latency.P99))
	rep.Add("avg latency (ms)", ms(rres.Latency.Mean), ms(ares.Latency.Mean))
	rep.Add("OHR", rres.OHR(), ares.OHR())
	rep.Add("BHR", rres.BHR(), ares.BHR())
	rep.Add("backend MB", fmt.Sprintf("%.1f", float64(rres.BackendBytes())/(1<<20)),
		fmt.Sprintf("%.1f", float64(ares.BackendBytes())/(1<<20)))
	rep.Add("requests/s (wall)",
		fmt.Sprintf("%.0f", float64(rres.Requests)/rres.Wall.Seconds()),
		fmt.Sprintf("%.0f", float64(ares.Requests)/ares.Wall.Seconds()))
	return rep
}
