package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"raven/internal/stats"
)

// SizeModel draws per-object sizes from a clamped log-normal, matching
// the heavy-tailed CDN size distributions and the narrow in-memory
// size distributions of the paper's Fig. 8a.
type SizeModel struct {
	Mu    float64 // mean of log size
	Sigma float64 // std dev of log size
	Min   int64
	Max   int64
}

// Draw samples one object size.
func (m SizeModel) Draw(g *stats.RNG) int64 {
	s := int64(m.LogNormalish(g))
	if s < m.Min {
		s = m.Min
	}
	if s > m.Max {
		s = m.Max
	}
	return s
}

// LogNormalish returns the unclamped log-normal sample (exposed for
// tests).
func (m SizeModel) LogNormalish(g *stats.RNG) float64 {
	return g.LogNormal(m.Mu, m.Sigma)
}

// ProductionConfig parameterizes the production-like generators that
// stand in for the paper's Wikipedia/Wikimedia CDN traces and Twitter
// in-memory traces (see DESIGN.md "Substitutions"). The workload is a
// superposition of Zipf-rated renewal processes with diurnal rate
// modulation, object churn (late-born objects), one-hit wonders, and
// optional short-range bursts.
type ProductionConfig struct {
	Name      string
	Objects   int     // catalog size (excluding one-hit wonders)
	Requests  int     // total requests including one-hit wonders
	ZipfAlpha float64 // popularity skew
	Sizes     SizeModel

	// DiurnalAmplitude in [0, 1) modulates the request rate as
	// 1 + A*sin(2*pi*t/Period), modelling time-of-day patterns (§4.1).
	DiurnalAmplitude float64
	Days             int // number of diurnal periods across the trace

	ChurnFraction  float64 // fraction of catalog born after t=0
	OneHitFraction float64 // fraction of requests that are one-hit wonders
	BurstProb      float64 // per-request probability of a follow-up burst arrival

	Seed int64
}

func (c *ProductionConfig) defaults() {
	if c.Objects == 0 {
		c.Objects = 20000
	}
	if c.Requests == 0 {
		c.Requests = 200000
	}
	if c.ZipfAlpha == 0 { //lint:allow float-equal zero ZipfAlpha means unset; fill the default
		c.ZipfAlpha = 0.9
	}
	if c.Days == 0 {
		c.Days = 2
	}
	if c.Sizes.Max == 0 {
		c.Sizes = SizeModel{Mu: math.Log(34 << 10), Sigma: 2.0, Min: 100, Max: 50 << 20}
	}
}

// Production generates a production-like trace per cfg.
func Production(cfg ProductionConfig) *Trace {
	cfg.defaults()
	g := stats.NewRNG(cfg.Seed)
	z := stats.NewZipf(cfg.Objects, cfg.ZipfAlpha)

	mainReqs := cfg.Requests - int(float64(cfg.Requests)*cfg.OneHitFraction)
	duration := float64(cfg.Requests) // aggregate rate ~1 req/tick
	period := duration / float64(cfg.Days)

	means := make([]float64, cfg.Objects)
	births := make([]float64, cfg.Objects)
	sizes := make([]int64, cfg.Objects)
	for i := range means {
		means[i] = 1 / z.Prob(i)
		sizes[i] = cfg.Sizes.Draw(g)
		if g.Float64() < cfg.ChurnFraction {
			births[i] = g.Float64() * 0.7 * duration
		}
	}

	maxMod := 1 + cfg.DiurnalAmplitude
	rateMod := func(t float64) float64 {
		if cfg.DiurnalAmplitude == 0 { //lint:allow float-equal exact zero amplitude disables the diurnal modulation
			return 1
		}
		return 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*t/period)
	}

	h := make(arrivalHeap, 0, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		t := births[i] + g.Exponential(means[i]/maxMod)
		h.push(arrival{t: t, obj: i})
	}

	// Every push is at or after the popped arrival, so the main stream
	// comes out ordered by time.
	tr := &Trace{Name: cfg.Name, Reqs: make([]Request, 0, cfg.Requests)}
	for len(tr.Reqs) < mainReqs && len(h) > 0 {
		a := h.pop()
		// Lewis thinning against the diurnal rate envelope.
		if g.Float64() <= rateMod(a.t)/maxMod {
			tr.Reqs = append(tr.Reqs, Request{
				Time: int64(math.Round(a.t * 16)),
				Key:  Key(a.obj),
				Size: sizes[a.obj],
				Next: NoNext,
			})
			if cfg.BurstProb > 0 && g.Float64() < cfg.BurstProb {
				h.push(arrival{t: a.t + g.Exponential(means[a.obj]/20), obj: a.obj})
			}
		}
		h.push(arrival{t: a.t + g.Exponential(means[a.obj]/maxMod), obj: a.obj})
	}

	// One-hit wonders: fresh keys, one request each, uniform in time.
	lastT := float64(0)
	if n := len(tr.Reqs); n > 0 {
		lastT = float64(tr.Reqs[n-1].Time)
	}
	once := make([]Request, cfg.Requests-len(tr.Reqs))
	for i := range once {
		once[i] = Request{
			Time: int64(g.Float64() * lastT),
			Key:  Key(cfg.Objects + i),
			Size: cfg.Sizes.Draw(g),
			Next: NoNext,
		}
	}
	// Their keys are unique and ascending, so ordering them by (Time,
	// Key) is the stable sort by time; the merge puts the main stream
	// first on ties. Together that is a stable sort of main ++ once.
	slices.SortFunc(once, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Key, b.Key))
	})
	tr.Reqs = mergeByTime(tr.Reqs, once)
	return tr
}

// mergeByTime merges b into a, both ordered by time, in a's spare
// capacity (grown if short), taking a's request first on equal times.
func mergeByTime(a, b []Request) []Request {
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].Time > b[j].Time {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

// ProductionPreset names one of the six production-like workloads.
type ProductionPreset string

// The six production-like workloads standing in for Table 1's traces.
const (
	Wiki18      ProductionPreset = "wiki18"
	Wiki19      ProductionPreset = "wiki19"
	Wikimedia19 ProductionPreset = "wikimedia19"
	TwitterC17  ProductionPreset = "twitter17"
	TwitterC29  ProductionPreset = "twitter29"
	TwitterC52  ProductionPreset = "twitter52"
)

// AllProductionPresets lists the six workloads in the paper's order.
var AllProductionPresets = []ProductionPreset{
	Wiki18, Wiki19, Wikimedia19, TwitterC17, TwitterC29, TwitterC52,
}

// IsCDN reports whether the preset models a CDN (variable large
// objects) rather than an in-memory cache workload.
func (p ProductionPreset) IsCDN() bool {
	switch p {
	case Wiki18, Wiki19, Wikimedia19:
		return true
	}
	return false
}

// PresetConfig returns the generator configuration of a preset, scaled
// by scale (1.0 = default laptop-scale; smaller for quick tests).
func PresetConfig(p ProductionPreset, scale float64, seed int64) ProductionConfig {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 100 {
			v = 100
		}
		return v
	}
	switch p {
	case Wiki18:
		return ProductionConfig{
			Name: string(p), Objects: n(30000), Requests: n(300000),
			ZipfAlpha:        0.95,
			Sizes:            SizeModel{Mu: math.Log(34 << 10), Sigma: 2.2, Min: 100, Max: 50 << 20},
			DiurnalAmplitude: 0.6, Days: 3, ChurnFraction: 0.3,
			OneHitFraction: 0.15, Seed: seed,
		}
	case Wiki19:
		return ProductionConfig{
			Name: string(p), Objects: n(36000), Requests: n(300000),
			ZipfAlpha:        0.9,
			Sizes:            SizeModel{Mu: math.Log(40 << 10), Sigma: 2.1, Min: 100, Max: 50 << 20},
			DiurnalAmplitude: 0.6, Days: 3, ChurnFraction: 0.35,
			OneHitFraction: 0.15, Seed: seed + 1,
		}
	case Wikimedia19:
		return ProductionConfig{
			Name: string(p), Objects: n(40000), Requests: n(250000),
			ZipfAlpha:        0.7, // most traffic from unpopular objects (Fig. 18)
			Sizes:            SizeModel{Mu: math.Log(33 << 10), Sigma: 0.9, Min: 500, Max: 7 << 20},
			DiurnalAmplitude: 0.5, Days: 3, ChurnFraction: 0.4,
			OneHitFraction: 0.25, Seed: seed + 2,
		}
	case TwitterC17:
		return ProductionConfig{
			Name: string(p), Objects: n(12000), Requests: n(400000),
			ZipfAlpha:        1.0,
			Sizes:            SizeModel{Mu: math.Log(300), Sigma: 0.4, Min: 50, Max: 1400},
			DiurnalAmplitude: 0.3, Days: 3, BurstProb: 0.3, Seed: seed + 3,
		}
	case TwitterC29:
		return ProductionConfig{
			Name: string(p), Objects: n(60000), Requests: n(350000),
			ZipfAlpha:        0.7,
			Sizes:            SizeModel{Mu: math.Log(480), Sigma: 0.7, Min: 50, Max: 700 << 10},
			DiurnalAmplitude: 0.4, Days: 3, ChurnFraction: 0.4,
			BurstProb: 0.2, OneHitFraction: 0.1, Seed: seed + 4,
		}
	case TwitterC52:
		return ProductionConfig{
			Name: string(p), Objects: n(80000), Requests: n(400000),
			ZipfAlpha:        0.8,
			Sizes:            SizeModel{Mu: math.Log(480), Sigma: 0.5, Min: 50, Max: 9 << 10},
			DiurnalAmplitude: 0.4, Days: 3, ChurnFraction: 0.3,
			BurstProb: 0.25, OneHitFraction: 0.2, Seed: seed + 5,
		}
	default:
		panic(fmt.Sprintf("trace: unknown production preset %q", p))
	}
}

// ProductionTrace generates one preset workload at the given scale.
func ProductionTrace(p ProductionPreset, scale float64, seed int64) *Trace {
	return Production(PresetConfig(p, scale, seed))
}
