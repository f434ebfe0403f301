package nn

import (
	"math"
	"sync/atomic"

	"raven/internal/stats"
)

// Sequence is one object's training record from a window (§4.2.4): its
// observed interarrival times and the open "survival" interval from
// its last request to the window end. Sequences with no interarrivals
// (one-hit wonders) still contribute through the survival term, which
// is how the paper addresses data scarcity.
type Sequence struct {
	Taus     []float64 // interarrival times in ticks
	Size     float64   // object size in bytes
	Survival float64   // ticks from last arrival to window end; <= 0 disables the term
}

// The fixed part of Fit's optimization: Adam's learning rate and the
// share of sequences withheld for early stopping.
const (
	learningRate = 1e-3
	valFrac      = 0.2
)

// TrainConfig controls Fit. Its zero value is the training the cache
// policy serves (see Defaults); every Fit runs under the training guard
// (guard.go) and takes the survival term of each sequence whose
// Survival is positive.
type TrainConfig struct {
	MaxEpochs int
	Patience  int // epochs without validation improvement before stopping (§5.1.3)
	Batch     int // sequences per Adam step
	MaxSeq    int // truncate sequences to their last MaxSeq interarrivals
	Seed      int64

	// Faults, when non-nil, injects deterministic training faults
	// (see TrainFaults). Test/fault-drill hook; nil in production.
	Faults *TrainFaults

	// stop, set by Trainer.Fit, ends the fit at the next epoch boundary
	// once it reads true.
	stop *atomic.Bool
}

// Defaults fills every zero field with the served training budget
// (§5.1.3, scaled to the CPU-only substrate per DESIGN.md): 12 epochs,
// patience 5, minibatches of 16, histories cut to their last 32
// interarrivals. Fit applies it; a caller that sizes state by MaxSeq
// before its first fit applies it too.
func (c *TrainConfig) Defaults() {
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 12
	}
	if c.Patience == 0 {
		c.Patience = 5
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.MaxSeq == 0 {
		c.MaxSeq = 32
	}
}

// TrainResult reports a Fit run.
type TrainResult struct {
	Epochs     int
	TrainNLL   float64 // final mean training NLL per term
	ValNLL     float64 // best validation NLL per term
	Sequences  int
	Terms      int // loss terms in the training split
	Parameters int

	// Diverged reports that the training guard tripped: the network
	// holds its exact pre-fit weights (Version unchanged) and
	// GuardReason says what tripped.
	Diverged    bool
	GuardReason string
}

// fitScratch is the training state a Net keeps from one Fit to the
// next, so that a network retrained every window allocates it once, not
// once per fit: the optimizer, the master RNG, the split-and-shuffle
// permutation, the gradient replica with its age RNG, the arena
// forwardBackward works in, and the two weight snapshots. It is never
// serialized, and no value in it outlives a fit: each buffer is
// overwritten before it is read, except the replica's gradient vector,
// which the fold into the master leaves zeroed (reduceZero).
type fitScratch struct {
	opt     *Adam
	rng     *stats.RNG  // the fit's master stream, reseeded with TrainConfig.Seed
	perm    []int       // the validation/training split, then the shuffled training order
	replica *Net        // takes one sequence's gradients, folded into the master's after it
	ageRNG  *stats.RNG  // the replica's age stream, reseeded per sequence
	arena   *trainArena // forwardBackward's scratch
	bestW   []float64   // the best validation epoch's weights
	preFit  []float64   // the pre-fit weights, then Adam's first and second moments
}

// scratch returns n's fit scratch, sized for a fit of data under tc;
// the first fit builds it, and a later one grows only what it outgrew.
func (n *Net) scratch(data []Sequence, tc TrainConfig) *fitScratch {
	st := n.fit
	if st == nil {
		P := n.NumParams()
		st = &fitScratch{
			opt:     NewAdam(learningRate, []*Param{n.all}),
			rng:     stats.NewRNG(0),
			replica: n.Shadow(),
			ageRNG:  stats.NewRNG(0), // reseeded before every use
			arena:   new(trainArena),
			bestW:   make([]float64, P),
			preFit:  make([]float64, 3*P),
		}
		n.fit = st
	}
	// The arena is grown here, before the first minibatch, to the
	// longest sequence forwardBackward will see, so the fit's allocation
	// count does not depend on the order its sequences come in.
	longest := 0
	for i := range data {
		longest = max(longest, len(data[i].Taus))
	}
	if tc.MaxSeq > 0 {
		longest = min(longest, tc.MaxSeq)
	}
	st.arena.grow(n, longest, true)
	if cap(st.perm) < len(data) {
		st.perm = make([]int, len(data))
	}
	st.perm = st.perm[:len(data)]
	return st
}

// Fit trains the network on data by maximizing Eq. 5 (log-likelihood
// of observed residuals plus survival probability of open intervals)
// with Adam, early-stopping on a withheld validation split. Fit may be
// called repeatedly (warm start); Version increments on return. The
// network keeps its training scratch (fitScratch) for the next call.
//
// Each sequence accumulates its gradients into the replica, drawing its
// ages from a stream seeded off the master RNG in sequence order, and
// the replica is folded into the master's gradient after it, so every
// entry sums as ((G+g₀)+g₁)+… in sequence order; the minibatch's losses
// add in the same order.
func (n *Net) Fit(data []Sequence, tc TrainConfig) TrainResult {
	tc.Defaults()
	res := TrainResult{Sequences: len(data), Parameters: n.NumParams()}
	if len(data) == 0 {
		n.Version++
		return res
	}
	nVal := int(valFrac * float64(len(data)))
	if nVal >= len(data) {
		nVal = len(data) - 1
	}
	st := n.scratch(data, tc)
	g := st.rng
	g.Reseed(tc.Seed)
	g.PermInto(st.perm)
	val, train := st.perm[:nVal], st.perm[nVal:]

	opt := st.opt
	opt.t = 0
	best := math.Inf(1)
	bestW := st.bestW
	n.copyInto(bestW)
	badEpochs := 0

	// The guard's rollback token: the exact pre-fit weights and Adam
	// moments. bestW above is overwritten as validation improves, so a
	// tripped guard restores this separate snapshot instead.
	preFit := st.preFit
	n.saveState(preFit)
	bestEpochNLL := math.Inf(1)

	// The shuffle's swap is built once: a closure per epoch would be a
	// heap allocation per epoch.
	swap := func(i, j int) { train[i], train[j] = train[j], train[i] }

	for epoch := 0; epoch < tc.MaxEpochs; epoch++ {
		if tc.stop != nil && tc.stop.Load() {
			return res // Trainer.Close: the caller discards this net
		}
		res.Epochs = epoch + 1
		g.Shuffle(len(train), swap)
		terms := 0
		lossSum := 0.0
		for start := 0; start < len(train); start += tc.Batch {
			end := min(start+tc.Batch, len(train))
			batchLoss := 0.0
			batchTerms := 0
			for _, i := range train[start:end] {
				st.ageRNG.Reseed(g.Int63())
				loss, k := st.replica.forwardBackward(st.arena, &data[i], st.ageRNG, tc, true)
				reduceZero(n.all.G, st.replica.all.G)
				batchLoss += loss
				batchTerms += k
			}
			terms += batchTerms
			if tc.Faults.lossFault(epoch + 1) {
				batchLoss = math.NaN()
			}
			if tc.Faults.nanGradFault(epoch+1) && len(n.all.G) > 0 {
				n.all.G[0] = math.NaN()
			}
			if s, ok := tc.Faults.gradFault(epoch + 1); ok {
				batchLoss *= s
				for i := range n.all.G {
					n.all.G[i] *= s
				}
			}
			lossSum += batchLoss
			if math.IsNaN(batchLoss) || math.IsInf(batchLoss, 0) || !n.finiteGrads() {
				return n.abortDiverged(&res, preFit, best, "non-finite minibatch loss or gradient")
			}
			if batchTerms > 0 {
				opt.Step(1 / float64(batchTerms))
			}
		}
		if terms > 0 {
			res.TrainNLL = lossSum / float64(terms)
		}
		res.Terms = terms
		if !n.FiniteWeights() {
			return n.abortDiverged(&res, preFit, best, "non-finite weights after epoch")
		}
		if terms > 0 {
			if res.TrainNLL-bestEpochNLL > maxLossBlowup*(math.Abs(bestEpochNLL)+1) {
				return n.abortDiverged(&res, preFit, best, "training loss blow-up")
			}
			if res.TrainNLL < bestEpochNLL {
				bestEpochNLL = res.TrainNLL
			}
		}

		vLoss, vTerms := 0.0, 0
		for _, i := range val {
			loss, k := st.replica.forwardBackward(st.arena, &data[i], nil, tc, false)
			vLoss += loss
			vTerms += k
		}
		cur := res.TrainNLL
		if vTerms > 0 {
			cur = vLoss / float64(vTerms)
		}
		if cur < best-1e-4 {
			best = cur
			n.copyInto(bestW)
			badEpochs = 0
		} else {
			badEpochs++
			if badEpochs > tc.Patience {
				break
			}
		}
	}
	n.restore(bestW)
	res.ValNLL = best
	n.Version++
	return res
}

// trainArena is the scratch forwardBackward reuses from sequence to
// sequence, so a fit allocates it once, not per timestep. Its
// matrices have one row per timestep or per MLP input — row i timestep
// i, MLP row m the survival term — and grow to the longest sequence
// they have held (at most MaxSeq, plus the survival row); they are
// never shrunk. Nothing in it outlives a call; it is kept with the
// Net's fit scratch for its next fit, and a serving net, which never
// trains, never builds one.
//
// Reuse keeps the arithmetic of freshly allocated buffers only if
// every buffer that is accumulated into (+=) starts from zero:
// forwardBackward zeroes dAW/dAMu/dAS (NLLGrad adds), backwardRows
// zeroes each input gradient before the tile kernel adds into it,
// backward zeroes drh, and Fit's reduction (reduceZero) zeroes the
// replica's gradient vector as it folds it into the master's.
// Everything else is overwritten before it is read.
type trainArena struct {
	feat           []float64 // the GRU inputs, then each MLP row's age feature (log1p'd in one pass)
	hs             []float64 // the recurrent state before step i (row i); row m the final state
	zr, rh, hc     []float64 // step i's gates z and r (2·Hidden wide), r⊙h and ĥ
	mix            Mixture   // a row's mixture, its W, Mu and S views of the rows below (lossRows)
	mlp            mlpRows   // the MLP's inputs and activations, a row per loss term
	mixE, mixW     []float64 // every row's softmax then deviation exps, and its weights (lossRows)
	mixL, mixMax   []float64 // the NLL rows' log weights, log deviations and log targets, and their maxL (lossRows)
	target         []float64 // each row's normalized residual, or survival threshold
	dAW, dAMu, dAS []float64 // the loss's gradients on the head activations, rows as mlp's (train only)
	dy2            []float64 // the heads' gradient on their input, rows as mlp's (backwardRows, train only)
	daZ, daR, daH  []float64 // step i's gate gradients (train only)
	dh, dhPrev     []float64 // the state gradient of BPTT
	drh            []float64 // backward's scratch
}

// grow gives a rows for an m-step sequence of n and its survival term.
func (a *trainArena) grow(n *Net, m int, train bool) {
	H := n.Cfg.Hidden
	if a.dh == nil {
		a.dh, a.dhPrev, a.drh = make([]float64, H), make([]float64, H), make([]float64, H)
	}
	rows, k := m+1, n.Cfg.K
	if len(a.target) < rows {
		a.feat = make([]float64, 2*rows)
		a.hs = make([]float64, rows*H)
		a.zr, a.rh, a.hc = make([]float64, rows*2*H), make([]float64, rows*H), make([]float64, rows*H)
		a.mlp = n.newMLPRows(rows)
		a.target = make([]float64, rows)
		a.mixE, a.mixW = make([]float64, 2*rows*k), make([]float64, rows*k)
		a.mixL, a.mixMax = make([]float64, 2*rows*k+rows), make([]float64, rows)
	}
	if train && len(a.dAW) < rows*k {
		a.dAW, a.dAMu, a.dAS = make([]float64, rows*k), make([]float64, rows*k), make([]float64, rows*k)
		a.dy2 = make([]float64, rows*n.Cfg.MLPHidden)
		a.daZ, a.daR, a.daH = make([]float64, rows*H), make([]float64, rows*H), make([]float64, rows*H)
	}
}

// forwardBackward runs one sequence through the network, returning the
// summed loss and the number of loss terms. With train=true it
// accumulates parameter gradients (ages drawn ~ U[0, τ] per Eq. 5);
// with train=false it evaluates the loss alone, deterministically (age
// = τ/2). Fit calls it on its replica, so it writes only n's own
// gradients and the arena a, and reads the shared weights. All scratch
// comes from a: in steady state it allocates nothing.
//
// It runs in three passes. The GRU has a recurrence and the MLP does
// not, so the MLP's work is batched over the sequence's rows:
//
//  1. the features: the ages drawn in sequence order, the survival
//     row's last, then every log1p of the GRU inputs and the age
//     features as one pass; then the GRU over the sequence, each step's
//     state and activations a row of the arena, and input row i the
//     state before step i with the size and age features, the survival
//     row (last) the final state;
//  2. the MLP over every row at once, then every row's loss term
//     (lossRows);
//  3. the MLP's backward over every row (backwardRows), which leaves
//     each row's gradient on its embedding, then BPTT from the last
//     step to the first, which computes the state and gate gradients
//     alone; the GRU's parameter gradients follow from the rows, once
//     per sequence (paramGrads).
func (n *Net) forwardBackward(a *trainArena, seq *Sequence, g *stats.RNG, tc TrainConfig, train bool) (float64, int) {
	taus := seq.Taus
	if tc.MaxSeq > 0 && len(taus) > tc.MaxSeq {
		taus = taus[len(taus)-tc.MaxSeq:]
	}
	m := len(taus)
	ts := n.Cfg.TimeScale
	fSize := featSize(seq.Size)

	a.grow(n, m, train)
	rows := m
	if seq.Survival > 0 {
		rows++
	}
	// feat holds the m GRU inputs, then the rows' age features.
	feat := a.feat[:m+rows]
	for i := 0; i < m; i++ {
		tau := taus[i]
		if tau < 1e-9 {
			tau = 1e-9
		}
		var age float64
		if train {
			age = g.Float64() * tau
		} else {
			age = tau / 2
		}
		residual := tau - age
		if residual < 1e-9 {
			residual = 1e-9
		}
		feat[i] = n.timeArg(tau)
		feat[m+i] = n.timeArg(age)
		a.target[i] = residual / ts
	}
	if rows > m {
		v := seq.Survival
		var age float64
		if train {
			age = g.Float64() * v
		} else {
			age = v / 2
		}
		thresh := v - age
		if thresh < 1e-9 {
			thresh = 1e-9
		}
		feat[2*m] = n.timeArg(age)
		a.target[m] = thresh / ts
	}
	log1pSlice(feat, feat)

	H := n.Cfg.Hidden
	row := func(b []float64, i int) []float64 { return b[i*H : (i+1)*H] }
	zero(row(a.hs, 0))
	for i := 0; i < m; i++ {
		n.setInput(&a.mlp, i, row(a.hs, i), fSize, feat[m+i])
		n.cell.step(feat[i], row(a.hs, i), row(a.hs, i+1), a.zr[2*i*H:2*(i+1)*H], row(a.rh, i), row(a.hc, i))
	}
	if rows > m {
		n.setInput(&a.mlp, m, row(a.hs, m), fSize, feat[2*m])
	}

	n.forwardRows(&a.mlp, rows)
	if !train {
		return n.lossRows(a, rows, m, false), rows
	}
	k := n.Cfg.K
	zero(a.dAW[:rows*k])
	zero(a.dAMu[:rows*k])
	zero(a.dAS[:rows*k])
	loss := n.lossRows(a, rows, m, true)

	n.backwardRows(a, rows)
	embGrad := func(i int) []float64 { return a.mlp.in[i*(H+2) : i*(H+2)+H] }
	dh, dhPrev := a.dh, a.dhPrev
	zero(dh)
	if rows > m {
		addTo(embGrad(m), dh)
	}
	for i := m - 1; i >= 0; i-- {
		n.cell.backward(dh, row(a.hs, i), a.zr[2*i*H:2*(i+1)*H], row(a.rh, i), row(a.hc, i),
			row(a.daZ, i), row(a.daR, i), row(a.daH, i), dhPrev, a.drh)
		dh, dhPrev = dhPrev, dh
		addTo(embGrad(i), dh)
	}
	n.cell.paramGrads(feat[:m], a.hs, a.rh, a.daZ, a.daR, a.daH, m)
	return loss, rows
}

// lossRows returns the summed loss of a's first rows MLP rows: rows 0
// to m−1 are NLL terms of their targets, and a row m the survival term.
// With train it also accumulates each row's gradients on its head
// activations into dAW/dAMu/dAS. Each row's mixture and term have the
// bits of MixtureFromActivations and NLLGrad (SurvivalNLLGrad,
// SurvivalNLL) on that row, and the terms add in row order; but the
// exps of every row's mixture run as one pass, and so do the NLL rows'
// logs and their likelihoods' exps.
func (n *Net) lossRows(a *trainArena, rows, m int, train bool) float64 {
	k, b := n.Cfg.K, &a.mlp
	row := func(v []float64, i int) []float64 { return v[i*k : (i+1)*k] }
	// The mixtures: each row's shifted softmax activations, then each
	// row's clamped log-deviations, exponentiated as one pass.
	e, W := a.mixE[:2*rows*k], a.mixW[:rows*k]
	ew, es := e[:rows*k], e[rows*k:]
	for i := 0; i < rows; i++ {
		expArgs(row(b.aW, i), row(b.aS, i), row(ew, i), row(es, i))
	}
	expSlice(e, e)
	for i := 0; i < rows; i++ {
		normalize(row(ew, i), row(W, i))
	}
	mix := &a.mix
	at := func(i int) *Mixture {
		mix.W, mix.Mu, mix.S = row(W, i), row(b.aMu, i), row(es, i)
		return mix
	}

	// The NLL rows' likelihoods: the logs of the weights, of the
	// deviations and of the targets as one pass, then each row's scaled
	// likelihoods, exponentiated as one pass.
	l := a.mixL[:2*m*k+m]
	lw, lS, lr := l[:m*k], l[m*k:2*m*k], l[2*m*k:]
	for i := 0; i < m; i++ {
		logArgs(row(W, i), row(es, i), row(lw, i), row(lS, i))
		lr[i] = a.target[i]
	}
	logSlice(l, l)
	maxL := a.mixMax[:m]
	for i := 0; i < m; i++ {
		maxL[i] = at(i).logLikelihoods(lr[i], row(lw, i), row(lS, i))
	}
	expSlice(lw, lw)

	loss := 0.0
	for i := 0; i < m; i++ {
		ls := row(lw, i)
		sum := sumOf(ls)
		if train {
			at(i).nllGrads(lr[i], sum, ls, row(a.dAW, i), row(a.dAMu, i), row(a.dAS, i))
		}
		loss += -(maxL[i] + math.Log(sum))
	}
	if rows > m {
		if train {
			loss += at(m).SurvivalNLLGrad(a.target[m], row(a.dAW, m), row(a.dAMu, m), row(a.dAS, m))
		} else {
			loss += at(m).SurvivalNLL(a.target[m])
		}
	}
	return loss
}

// abortDiverged finalizes a guard-tripped Fit: the pre-fit weights
// and Adam moments are restored bit-identically and the master
// gradient is zeroed, so the next Fit starts from exactly the state
// this one did; Version stays unchanged (cached embeddings computed
// against these weights remain valid), and the result reports why
// training was abandoned.
func (n *Net) abortDiverged(res *TrainResult, preFit []float64, best float64, reason string) TrainResult {
	n.loadState(preFit)
	clear(n.all.G)
	res.Diverged = true
	res.GuardReason = reason
	if !math.IsInf(best, 1) {
		res.ValNLL = best
	}
	return *res
}

func (n *Net) copyInto(dst []float64) { copy(dst, n.all.W) }

func (n *Net) restore(src []float64) { copy(n.all.W, src) }

// saveState copies the weights, then Adam's first and second moments,
// into dst, three NumParams-long runs end to end; loadState puts them
// back.
func (n *Net) saveState(dst []float64) {
	P := len(n.all.W)
	copy(dst[:P], n.all.W)
	copy(dst[P:2*P], n.all.m)
	copy(dst[2*P:3*P], n.all.v)
}

func (n *Net) loadState(src []float64) {
	P := len(n.all.W)
	copy(n.all.W, src[:P])
	copy(n.all.m, src[P:2*P])
	copy(n.all.v, src[2*P:3*P])
}
