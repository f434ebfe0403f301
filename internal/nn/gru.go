package nn

import (
	"math"

	"raven/internal/stats"
)

// GRU is the gated-recurrent-unit cell the paper uses as its history
// encoder (§4.2.1, §5.1.3):
//
//	z = σ(Wz x + Uz h + bz)
//	r = σ(Wr x + Ur h + br)
//	ĥ = tanh(Wh x + Uh (r⊙h) + bh)
//	h' = (1−z)⊙h + z⊙ĥ
type GRU struct {
	In, HiddenN                        int
	Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh *Param

	// scr holds the gate activations of a Step that records nothing
	// (inference; built on first use). GRU is not safe for concurrent
	// use, matching the policy contract.
	scr *gruCache
	// bwd is Backward's scratch, one 7·H block (lazily sized, private
	// to each Shadow like scr).
	bwd []float64
}

// NewGRU returns a GRU cell with Xavier-initialized weights.
func NewGRU(name string, in, hidden int, g *stats.RNG) *GRU {
	u := &GRU{
		In: in, HiddenN: hidden,
		Wz: newParam(name+".Wz", hidden*in), Uz: newParam(name+".Uz", hidden*hidden), Bz: newParam(name+".bz", hidden),
		Wr: newParam(name+".Wr", hidden*in), Ur: newParam(name+".Ur", hidden*hidden), Br: newParam(name+".br", hidden),
		Wh: newParam(name+".Wh", hidden*in), Uh: newParam(name+".Uh", hidden*hidden), Bh: newParam(name+".bh", hidden),
	}
	for _, p := range []*Param{u.Wz, u.Wr, u.Wh} {
		p.initXavier(g, in, hidden)
	}
	for _, p := range []*Param{u.Uz, u.Ur, u.Uh} {
		p.initXavier(g, hidden, hidden)
	}
	return u
}

// Params returns the learnable tensors.
func (u *GRU) Params() []*Param {
	return []*Param{u.Wz, u.Uz, u.Bz, u.Wr, u.Ur, u.Br, u.Wh, u.Uh, u.Bh}
}

// gruCache holds one step's activations: what Backward needs of a
// training step, or the gate scratch of an inference step.
type gruCache struct {
	x, prev      []float64
	z, r, rh, hc []float64 // update gate, reset gate, r⊙h, candidate ĥ
}

func (u *GRU) newCache() *gruCache {
	H := u.HiddenN
	return &gruCache{
		x: make([]float64, u.In), prev: make([]float64, H),
		z: make([]float64, H), r: make([]float64, H), rh: make([]float64, H), hc: make([]float64, H),
	}
}

// Shadow returns a replica whose weights alias this cell's but whose
// gradient buffers and scratch are private, so one goroutine can run
// Step/Backward concurrently with others. The replica's lazily-sized
// scratch starts empty, so concurrent shadows never share it.
func (u *GRU) Shadow() *GRU {
	return &GRU{In: u.In, HiddenN: u.HiddenN,
		Wz: u.Wz.shadowOf(), Uz: u.Uz.shadowOf(), Bz: u.Bz.shadowOf(),
		Wr: u.Wr.shadowOf(), Ur: u.Ur.shadowOf(), Br: u.Br.shadowOf(),
		Wh: u.Wh.shadowOf(), Uh: u.Uh.shadowOf(), Bh: u.Bh.shadowOf()}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Step advances prev to out given input x, recording activations in
// cache when non-nil. out may alias prev.
func (u *GRU) Step(x, prev []float64, cache *gruCache, out []float64) {
	H := u.HiddenN
	if cache != nil {
		copy(cache.x, x)
		copy(cache.prev, prev)
	} else {
		if u.scr == nil {
			u.scr = u.newCache()
		}
		cache = u.scr
	}
	z, r, rh, hc := cache.z, cache.r, cache.rh, cache.hc

	matVec(u.Wz.W, H, u.In, x, u.Bz.W, z)
	matVecAdd(u.Uz.W, H, prev, z)
	for i := range z {
		z[i] = sigmoid(z[i])
	}
	matVec(u.Wr.W, H, u.In, x, u.Br.W, r)
	matVecAdd(u.Ur.W, H, prev, r)
	for i := range r {
		r[i] = sigmoid(r[i])
	}
	for i := range rh {
		rh[i] = r[i] * prev[i]
	}
	matVec(u.Wh.W, H, u.In, x, u.Bh.W, hc)
	matVecAdd(u.Uh.W, H, rh, hc)
	for i := range hc {
		hc[i] = math.Tanh(hc[i])
	}
	for i := 0; i < H; i++ {
		out[i] = (1-z[i])*prev[i] + z[i]*hc[i]
	}
}

// Backward consumes dNext (the gradient on this step's output state)
// and the step's cache, accumulates parameter gradients, and writes the
// gradient on the previous state into dPrev (overwritten).
func (u *GRU) Backward(cache *gruCache, dNext, dPrev []float64) {
	H := u.HiddenN
	z, r, rh, hc := cache.z, cache.r, cache.rh, cache.hc
	if len(u.bwd) != 7*H {
		u.bwd = make([]float64, 7*H)
	}
	b := u.bwd
	dz, dhc, daH, drh := b[:H], b[H:2*H], b[2*H:3*H], b[3*H:4*H]
	dr, daZ, daR := b[4*H:5*H], b[5*H:6*H], b[6*H:]
	zero(drh) // the only one accumulated into (matTVecAdd); the rest are assigned

	for i := 0; i < H; i++ {
		dz[i] = dNext[i] * (hc[i] - cache.prev[i])
		dhc[i] = dNext[i] * z[i]
		dPrev[i] = dNext[i] * (1 - z[i])
		daH[i] = dhc[i] * (1 - hc[i]*hc[i])
	}
	// Candidate path.
	outerAdd(u.Wh.G, H, u.In, daH, cache.x)
	outerAdd(u.Uh.G, H, H, daH, rh)
	axpy(1, daH, u.Bh.G)
	matTVecAdd(u.Uh.W, H, H, daH, drh)
	for i := 0; i < H; i++ {
		dr[i] = drh[i] * cache.prev[i]
		dPrev[i] += drh[i] * r[i]
		daZ[i] = dz[i] * z[i] * (1 - z[i])
		daR[i] = dr[i] * r[i] * (1 - r[i])
	}
	// Gate paths.
	outerAdd(u.Wz.G, H, u.In, daZ, cache.x)
	outerAdd(u.Uz.G, H, H, daZ, cache.prev)
	axpy(1, daZ, u.Bz.G)
	outerAdd(u.Wr.G, H, u.In, daR, cache.x)
	outerAdd(u.Ur.G, H, H, daR, cache.prev)
	axpy(1, daR, u.Br.G)
	matTVecAdd(u.Uz.W, H, H, daZ, dPrev)
	matTVecAdd(u.Ur.W, H, H, daR, dPrev)
}
