package trace

import (
	"fmt"
	"math"

	"raven/internal/stats"
)

// CitiConfig parameterizes the Citi-Bike-like station streams used for
// the PredictiveMarker comparison (Appendix B): unit-size requests over
// a few hundred "stations" with strong commute-hour periodicity.
type CitiConfig struct {
	Months    int // number of monthly traces (the paper uses 12)
	Requests  int // requests per month (the paper uses 25,000)
	Stations  int
	ZipfAlpha float64
	Seed      int64
}

func (c *CitiConfig) defaults() {
	if c.Months == 0 {
		c.Months = 12
	}
	if c.Requests == 0 {
		c.Requests = 25000
	}
	if c.Stations == 0 {
		c.Stations = 600
	}
	if c.ZipfAlpha == 0 { //lint:allow float-equal zero ZipfAlpha means unset; fill the default
		c.ZipfAlpha = 0.9
	}
}

// CitiTraces generates the monthly station traces. Each request's key
// is the starting station of a trip; all sizes are 1. The arrival rate
// has two commute peaks per simulated day.
func CitiTraces(cfg CitiConfig) []*Trace {
	cfg.defaults()
	out := make([]*Trace, 0, cfg.Months)
	for m := 0; m < cfg.Months; m++ {
		g := stats.NewRNG(cfg.Seed + int64(m)*104729)
		z := stats.NewZipf(cfg.Stations, cfg.ZipfAlpha)
		// Per-month slight popularity drift: rotate station ranks.
		perm := g.Perm(cfg.Stations)

		const ticksPerDay = 2000.0
		tr := &Trace{
			Name: fmt.Sprintf("citi-%02d", m+1),
			Reqs: make([]Request, 0, cfg.Requests),
		}
		t := 0.0
		for len(tr.Reqs) < cfg.Requests {
			// Two commute peaks per day (8am / 6pm pattern).
			day := math.Mod(t, ticksPerDay) / ticksPerDay
			rate := 0.4 + 0.8*(peak(day, 0.33)+peak(day, 0.75))
			t += g.Exponential(1 / rate)
			st := perm[z.Sample(g)]
			tr.Reqs = append(tr.Reqs, Request{
				Time: int64(math.Round(t * 16)),
				Key:  Key(st),
				Size: 1,
				Next: NoNext,
			})
		}
		out = append(out, tr)
	}
	return out
}

// peakWidth is the standard deviation of a commute peak, in days.
const peakWidth = 0.06

// peak is the unnormalised Gaussian bump of a commute peak centred at
// mu (a fraction of the day).
func peak(x, mu float64) float64 {
	d := (x - mu) / peakWidth
	return math.Exp(-0.5 * d * d)
}
