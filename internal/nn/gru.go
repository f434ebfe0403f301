package nn

import "raven/internal/stats"

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

	// scr holds the gate activations of a Step, 4·HiddenN wide (step's
	// zr, rh and hc end to end; built on first use, private to each
	// Shadow). GRU is not safe for concurrent use, matching the policy
	// contract.
	scr []float64
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

// shadow returns a replica whose weights alias this cell's but whose
// gradients (the next tensors of s, a shadow's storage) and scratch
// are private, so one goroutine can run Step and the backward pass
// concurrently with others. The replica's lazily-sized scratch starts
// empty, so concurrent shadows never share it.
func (u *GRU) shadow(s *slab) *GRU {
	return &GRU{HiddenN: u.HiddenN,
		Wz: s.like(u.Wz), Uz: s.like(u.Uz), Bz: s.like(u.Bz),
		Wr: s.like(u.Wr), Ur: s.like(u.Ur), Br: s.like(u.Br),
		Wh: s.like(u.Wh), Uh: s.like(u.Uh), Bh: s.like(u.Bh)}
}

// Step advances prev to out given input x. out may alias prev.
func (u *GRU) Step(x float64, prev, out []float64) {
	H := u.HiddenN
	if len(u.scr) != 4*H {
		u.scr = make([]float64, 4*H)
	}
	u.step(x, prev, out, u.scr[:2*H], u.scr[2*H:3*H], u.scr[3*H:])
}

// step is Step leaving its activations in zr (the update gate z, then
// the reset gate r: 2·HiddenN), rh (r⊙prev) and hc (ĥ), what the
// backward pass reads. The gates' sigmoids run as one pass, and so do
// ĥ's tanhs.
func (u *GRU) step(x float64, prev, out, zr, rh, hc []float64) {
	H := u.HiddenN
	checkLen(prev, H)
	checkLen(out, H)
	zr = zr[:2*H]
	z, r := zr[:H], zr[H:]
	rh, hc = rh[:H], hc[:H]

	u.inputs(x, z, r, hc)
	matVecAdd(u.Uz.W, H, prev, z)
	matVecAdd(u.Ur.W, H, prev, r)
	sigmoidSlice(zr, zr)
	for i := range rh {
		rh[i] = r[i] * prev[i]
	}
	matVecAdd(u.Uh.W, H, rh, hc)
	tanhSlice(hc, hc)
	for i := 0; i < H; i++ {
		out[i] = (1-z[i])*prev[i] + z[i]*hc[i]
	}
}

// backward is one step of backpropagation through time. Given dNext,
// the gradient on the step's output state, and what step left (prev,
// zr, rh, hc), it writes the gate gradients — daZ, daR and daH, on the
// pre-activations of z, r and ĥ — and the gradient on the previous
// state into dPrev (overwritten); drh is its scratch. It accumulates no
// parameter gradient: paramGrads does, once per sequence.
func (u *GRU) backward(dNext, prev, zr, rh, hc, daZ, daR, daH, dPrev, drh []float64) {
	H := u.HiddenN
	z, r := zr[:H], zr[H:2*H]
	dNext, prev, hc = dNext[:H], prev[:H], hc[:H]
	daZ, daR, daH, dPrev, drh = daZ[:H], daR[:H], daH[:H], dPrev[:H], drh[:H]
	for i := range dPrev {
		dz := dNext[i] * (hc[i] - prev[i])
		dhc := dNext[i] * z[i]
		dPrev[i] = dNext[i] * (1 - z[i])
		daH[i] = dhc * (1 - hc[i]*hc[i])
		daZ[i] = dz * z[i] * (1 - z[i])
	}
	zero(drh)
	matTVecAdd(u.Uh.W, H, H, daH, drh)
	for i := range dPrev {
		dr := drh[i] * prev[i]
		dPrev[i] += drh[i] * r[i]
		daR[i] = dr * r[i] * (1 - r[i])
	}
	matTVecAdd(u.Uz.W, H, H, daZ, dPrev)
	matTVecAdd(u.Ur.W, H, H, daR, dPrev)
}

// paramGrads accumulates the parameter gradients of an m-step sequence
// from its rows (HiddenN wide, row i step i): the inputs xs, the states
// before each step prevs, the r⊙h rows rhs, and backward's gate
// gradients daZ, daR and daH. Every gradient entry sums the rows last
// step first, the order backpropagation through time visits them, so
// it has the bits of accumulating step by step.
func (u *GRU) paramGrads(xs, prevs, rhs, daZ, daR, daH []float64, m int) {
	H := u.HiddenN
	outerAddRows(u.Uh.G, H, H, daH, rhs, m)
	addRows(u.Bh.G, H, daH, m)
	outerAddRows(u.Uz.G, H, H, daZ, prevs, m)
	addRows(u.Bz.G, H, daZ, m)
	outerAddRows(u.Ur.G, H, H, daR, prevs, m)
	addRows(u.Br.G, H, daR, m)
	for i := m - 1; i >= 0; i-- {
		u.inputGrads(xs[i], daZ[i*H:(i+1)*H], daR[i*H:(i+1)*H], daH[i*H:(i+1)*H])
	}
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
// gradient is ±0 as outerAddRows skips a dead row.
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
