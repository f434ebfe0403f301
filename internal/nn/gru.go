package nn

import (
	"math"

	"raven/internal/stats"
)

// GRU is a gated-recurrent-unit cell (the paper's default history
// encoder, §4.2.1):
//
//	z = σ(Wz x + Uz h + bz)
//	r = σ(Wr x + Ur h + br)
//	ĥ = tanh(Wh x + Uh (r⊙h) + bh)
//	h' = (1−z)⊙h + z⊙ĥ
type GRU struct {
	In, HiddenN                        int
	Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh *Param

	// inference scratch (lazily sized); GRU is not safe for
	// concurrent use, matching the policy contract.
	scrZ, scrR, scrRH, scrHC []float64
	// bwd is Backward's scratch, one 7·H block (lazily sized, private
	// to each Shadow like the inference scratch).
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

// Params implements Cell.
func (u *GRU) Params() []*Param {
	return []*Param{u.Wz, u.Uz, u.Bz, u.Wr, u.Ur, u.Br, u.Wh, u.Uh, u.Bh}
}

// StateSize implements Cell.
func (u *GRU) StateSize() int { return u.HiddenN }

// OutputSize implements Cell.
func (u *GRU) OutputSize() int { return u.HiddenN }

// Cache buffer layout: Bufs = [z, r, r⊙h, ĥ].
const (
	gruZ = iota
	gruR
	gruRH
	gruHC
)

// NewCache implements Cell.
func (u *GRU) NewCache() *CellCache {
	return newCellCache(u.In, u.HiddenN, u.HiddenN, u.HiddenN, u.HiddenN, u.HiddenN)
}

// Shadow implements Cell. The replica's lazily-sized inference
// scratch starts empty, so concurrent shadows never share it.
func (u *GRU) Shadow() Cell {
	return &GRU{In: u.In, HiddenN: u.HiddenN,
		Wz: u.Wz.shadowOf(), Uz: u.Uz.shadowOf(), Bz: u.Bz.shadowOf(),
		Wr: u.Wr.shadowOf(), Ur: u.Ur.shadowOf(), Br: u.Br.shadowOf(),
		Wh: u.Wh.shadowOf(), Uh: u.Uh.shadowOf(), Bh: u.Bh.shadowOf()}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Step implements Cell. out may alias prev.
func (u *GRU) Step(x, prev []float64, cache *CellCache, out []float64) {
	H := u.HiddenN
	var z, r, rh, hc []float64
	if cache != nil {
		copy(cache.X, x)
		copy(cache.Prev, prev)
		z, r, rh, hc = cache.Bufs[gruZ], cache.Bufs[gruR], cache.Bufs[gruRH], cache.Bufs[gruHC]
	} else {
		if len(u.scrZ) != H {
			u.scrZ = make([]float64, H)
			u.scrR = make([]float64, H)
			u.scrRH = make([]float64, H)
			u.scrHC = make([]float64, H)
		}
		z, r, rh, hc = u.scrZ, u.scrR, u.scrRH, u.scrHC
	}

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

// Backward implements Cell.
func (u *GRU) Backward(cache *CellCache, dNext, dPrev []float64) {
	H := u.HiddenN
	z, r, rh, hc := cache.Bufs[gruZ], cache.Bufs[gruR], cache.Bufs[gruRH], cache.Bufs[gruHC]
	if len(u.bwd) != 7*H {
		u.bwd = make([]float64, 7*H)
	}
	b := u.bwd
	dz, dhc, daH, drh := b[:H], b[H:2*H], b[2*H:3*H], b[3*H:4*H]
	dr, daZ, daR := b[4*H:5*H], b[5*H:6*H], b[6*H:]
	zero(drh) // the only one accumulated into (matTVecAdd); the rest are assigned

	for i := 0; i < H; i++ {
		dz[i] = dNext[i] * (hc[i] - cache.Prev[i])
		dhc[i] = dNext[i] * z[i]
		dPrev[i] = dNext[i] * (1 - z[i])
		daH[i] = dhc[i] * (1 - hc[i]*hc[i])
	}
	// Candidate path.
	outerAdd(u.Wh.G, H, u.In, daH, cache.X)
	outerAdd(u.Uh.G, H, H, daH, rh)
	axpy(1, daH, u.Bh.G)
	matTVecAdd(u.Uh.W, H, H, daH, drh)
	for i := 0; i < H; i++ {
		dr[i] = drh[i] * cache.Prev[i]
		dPrev[i] += drh[i] * r[i]
		daZ[i] = dz[i] * z[i] * (1 - z[i])
		daR[i] = dr[i] * r[i] * (1 - r[i])
	}
	// Gate paths.
	outerAdd(u.Wz.G, H, u.In, daZ, cache.X)
	outerAdd(u.Uz.G, H, H, daZ, cache.Prev)
	axpy(1, daZ, u.Bz.G)
	outerAdd(u.Wr.G, H, u.In, daR, cache.X)
	outerAdd(u.Ur.G, H, H, daR, cache.Prev)
	axpy(1, daR, u.Br.G)
	matTVecAdd(u.Uz.W, H, H, daZ, dPrev)
	matTVecAdd(u.Ur.W, H, H, daR, dPrev)
}
