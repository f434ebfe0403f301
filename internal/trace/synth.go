package trace

import (
	"fmt"
	"math"

	"raven/internal/stats"
)

// Interarrival selects the per-object interarrival distribution of a
// synthetic renewal workload (§3.5: Poisson, Uniform, Pareto).
type Interarrival int

// Interarrival distributions used by the paper's synthetic traces.
const (
	Poisson Interarrival = iota // exponential interarrivals
	Uniform                     // U(0, 2*mean)
	Pareto                      // heavy-tailed, mean-matched, shape 1.5
)

// paretoShape is the tail index of the Pareto interarrivals.
const paretoShape = 1.5

// String returns the distribution name.
func (d Interarrival) String() string {
	switch d {
	case Poisson:
		return "poisson"
	case Uniform:
		return "uniform"
	case Pareto:
		return "pareto"
	default:
		return fmt.Sprintf("interarrival(%d)", int(d))
	}
}

// ParseInterarrival returns the law String names: poisson, uniform or
// pareto.
func ParseInterarrival(name string) (Interarrival, error) {
	for _, d := range []Interarrival{Poisson, Uniform, Pareto} {
		if name == d.String() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown synthetic law %q (known: poisson, uniform, pareto)", name)
}

// SynthConfig parameterizes a synthetic renewal-superposition trace:
// Objects independent renewal processes whose rates follow a Zipf law,
// merged in time order (§3.5 / Appendix C.1).
type SynthConfig struct {
	Objects      int
	Requests     int
	ZipfAlpha    float64 // popularity skew; the paper uses 0.8
	Interarrival Interarrival

	// VariableSizes assigns each object a fixed size drawn from
	// U[SizeLo, SizeHi) (the paper uses U(10, 1600)); otherwise all
	// objects have size 1.
	VariableSizes bool
	SizeLo        int64
	SizeHi        int64

	Seed int64
}

func (c *SynthConfig) defaults() {
	if c.Objects == 0 {
		c.Objects = 1000
	}
	if c.Requests == 0 {
		c.Requests = 100000
	}
	if c.ZipfAlpha == 0 { //lint:allow float-equal zero ZipfAlpha means unset; fill the default
		c.ZipfAlpha = 0.8
	}
	if c.SizeLo == 0 {
		c.SizeLo = 10
	}
	if c.SizeHi == 0 {
		c.SizeHi = 1600
	}
}

// event queue of per-object next arrivals.
type arrival struct {
	t   float64
	obj int
}

// arrivalHeap is a binary min-heap on t. push and pop take
// container/heap's up and down steps with the same strict < tests, so
// ties leave the heap exactly as container/heap would, but nothing is
// boxed in an interface on the way.
type arrivalHeap []arrival

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].t < s[i].t) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *arrivalHeap) pop() arrival {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].t < s[j].t {
			j++
		}
		if !(s[j].t < s[i].t) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// Synthetic generates a renewal-superposition trace per cfg. Object
// rates are Zipf-distributed; each object's interarrival times follow
// cfg.Interarrival with that object's mean. Timestamps are in ticks
// with an aggregate rate of roughly one request per tick.
func Synthetic(cfg SynthConfig) *Trace {
	cfg.defaults()
	g := stats.NewRNG(cfg.Seed)
	z := stats.NewZipf(cfg.Objects, cfg.ZipfAlpha)

	means := make([]float64, cfg.Objects)
	for i := range means {
		// Aggregate rate ~1 req/tick: object i's rate is its Zipf share.
		means[i] = 1 / z.Prob(i)
	}
	sizes := make([]int64, cfg.Objects)
	for i := range sizes {
		if cfg.VariableSizes {
			sizes[i] = cfg.SizeLo + g.Int63n(cfg.SizeHi-cfg.SizeLo)
		} else {
			sizes[i] = 1
		}
	}

	draw := func(obj int) float64 {
		mean := means[obj]
		switch cfg.Interarrival {
		case Poisson:
			return g.Exponential(mean)
		case Uniform:
			return g.Uniform(0, 2*mean)
		case Pareto:
			return g.ParetoMean(paretoShape, mean)
		default:
			panic("trace: unknown interarrival distribution")
		}
	}

	h := make(arrivalHeap, 0, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		// Stagger initial arrivals to avoid a synchronized start.
		h.push(arrival{t: g.Float64() * means[i], obj: i})
	}

	tr := &Trace{Name: "synth-" + cfg.Interarrival.String(), Reqs: make([]Request, 0, cfg.Requests)}
	for len(tr.Reqs) < cfg.Requests {
		a := h.pop()
		tr.Reqs = append(tr.Reqs, Request{
			Time: int64(math.Round(a.t * 16)), // 16 sub-ticks reduce timestamp ties
			Key:  Key(a.obj),
			Size: sizes[a.obj],
			Next: NoNext,
		})
		h.push(arrival{t: a.t + draw(a.obj), obj: a.obj})
	}
	return tr
}
