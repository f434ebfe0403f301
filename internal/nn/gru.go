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
//
// Its input x is one feature (the log interarrival time, Net.featTau),
// so each input weight W· is a column of HiddenN entries and Step takes
// x as a scalar.
type GRU struct {
	HiddenN                            int
	Wz, Uz, Bz, Wr, Ur, Br, Wh, Uh, Bh *Param

	// scr holds the gate activations of a Step that records nothing
	// (inference; built on first use). GRU is not safe for concurrent
	// use, matching the policy contract.
	scr *gruCache
	// bwd is Backward's scratch, one 7·H block (lazily sized, private
	// to each Shadow like scr).
	bwd []float64
}

// gruParams is the number of parameters of a GRU of the given width.
func gruParams(hidden int) int { return 3 * (hidden + hidden*hidden + hidden) }

// newGRU returns a GRU cell with Xavier-initialized weights, its
// tensors the next ones of s.
func newGRU(s *slab, name string, hidden int, g *stats.RNG) *GRU {
	u := &GRU{HiddenN: hidden,
		Wz: s.view(name+".Wz", hidden), Uz: s.view(name+".Uz", hidden*hidden), Bz: s.view(name+".bz", hidden),
		Wr: s.view(name+".Wr", hidden), Ur: s.view(name+".Ur", hidden*hidden), Br: s.view(name+".br", hidden),
		Wh: s.view(name+".Wh", hidden), Uh: s.view(name+".Uh", hidden*hidden), Bh: s.view(name+".bh", hidden),
	}
	for _, p := range []*Param{u.Wz, u.Wr, u.Wh} {
		p.initXavier(g, 1, hidden)
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
	x            float64
	prev         []float64
	z, r, rh, hc []float64 // update gate, reset gate, r⊙h, candidate ĥ
	zr           []float64 // z then r, end to end: the gates' sigmoids run as one pass
}

func (u *GRU) newCache() *gruCache {
	H := u.HiddenN
	zr := make([]float64, 2*H)
	return &gruCache{prev: make([]float64, H),
		z: zr[:H], r: zr[H:], zr: zr, rh: make([]float64, H), hc: make([]float64, H),
	}
}

// shadow returns a replica whose weights alias this cell's but whose
// gradients (the next tensors of s, a shadow's storage) and scratch
// are private, so one goroutine can run Step/Backward concurrently
// with others. The replica's lazily-sized scratch starts empty, so
// concurrent shadows never share it.
func (u *GRU) shadow(s *slab) *GRU {
	return &GRU{HiddenN: u.HiddenN,
		Wz: s.like(u.Wz), Uz: s.like(u.Uz), Bz: s.like(u.Bz),
		Wr: s.like(u.Wr), Ur: s.like(u.Ur), Br: s.like(u.Br),
		Wh: s.like(u.Wh), Uh: s.like(u.Uh), Bh: s.like(u.Bh)}
}

// sigmoids sets each v_i to σ(v_i) = 1/(1+exp(−v_i)), the exps four
// at a time (expSlice).
func sigmoids(v []float64) {
	for i := range v {
		v[i] = -v[i]
	}
	expSlice(v, v)
	for i := range v {
		v[i] = 1 / (1 + v[i])
	}
}

// Step advances prev to out given input x, recording activations in
// cache when non-nil. out may alias prev.
func (u *GRU) Step(x float64, prev []float64, cache *gruCache, out []float64) {
	H := u.HiddenN
	checkLen(prev, H)
	checkLen(out, H)
	if cache != nil {
		cache.x = x
		copy(cache.prev, prev)
	} else {
		if u.scr == nil {
			u.scr = u.newCache()
		}
		cache = u.scr
	}
	z, r, rh, hc := cache.z, cache.r, cache.rh, cache.hc

	u.inputs(x, z, r, hc)
	matVecAdd(u.Uz.W, H, prev, z)
	matVecAdd(u.Ur.W, H, prev, r)
	sigmoids(cache.zr)
	for i := range rh {
		rh[i] = r[i] * prev[i]
	}
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
	u.inputGrads(cache.x, daZ, daR, daH)
	outerAdd(u.Uz.G, H, H, daZ, cache.prev)
	axpy(1, daZ, u.Bz.G)
	outerAdd(u.Ur.G, H, H, daR, cache.prev)
	axpy(1, daR, u.Br.G)
	matTVecAdd(u.Uz.W, H, H, daZ, dPrev)
	matTVecAdd(u.Ur.W, H, H, daR, dPrev)
}

// inputs sets z, r and hc to the gates' input terms Wz·x+bz, Wr·x+br
// and Wh·x+bh. Each is summed as matVec sums a one-column row — from
// +0, then the product, then the bias — so the bits are those of a
// HiddenN×1 matVec, ±0 included.
func (u *GRU) inputs(x float64, z, r, hc []float64) {
	wz, bz := u.Wz.W, u.Bz.W[:len(u.Wz.W)]
	wr, br := u.Wr.W[:len(wz)], u.Br.W[:len(wz)]
	wh, bh := u.Wh.W[:len(wz)], u.Bh.W[:len(wz)]
	z, r, hc = z[:len(wz)], r[:len(wz)], hc[:len(wz)]
	for i := range wz {
		z[i] = 0 + wz[i]*x + bz[i]
		r[i] = 0 + wr[i]*x + br[i]
		hc[i] = 0 + wh[i]*x + bh[i]
	}
}

// inputGrads accumulates the input weights' gradients Wz.G += daZ·x,
// Wr.G += daR·x and Wh.G += daH·x, skipping each entry whose gate
// gradient is ±0 as outerAdd skips a dead row.
func (u *GRU) inputGrads(x float64, daZ, daR, daH []float64) {
	gz := u.Wz.G
	gr, gh := u.Wr.G[:len(gz)], u.Wh.G[:len(gz)]
	daZ, daR, daH = daZ[:len(gz)], daR[:len(gz)], daH[:len(gz)]
	for i := range gz {
		if d := daZ[i]; d != 0 { //lint:allow float-equal exact zero skips dead gradient rows; bit-exact by design
			gz[i] += d * x
		}
		if d := daR[i]; d != 0 { //lint:allow float-equal exact zero skips dead gradient rows; bit-exact by design
			gr[i] += d * x
		}
		if d := daH[i]; d != 0 { //lint:allow float-equal exact zero skips dead gradient rows; bit-exact by design
			gh[i] += d * x
		}
	}
}
