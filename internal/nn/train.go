package nn

import (
	"math"

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
	// Workers is the number of goroutines Fit fans each minibatch (and
	// the validation pass) out over; 0 or 1 runs serially. Results are
	// bit-identical for every value — gradient shards are reduced in
	// fixed sequence order and every sequence owns its RNG stream — so
	// Workers is purely a throughput knob. runtime.GOMAXPROCS(0) is
	// the hardware optimum.
	Workers int
	Seed    int64

	// Faults, when non-nil, injects deterministic training faults
	// (see TrainFaults). Test/fault-drill hook; nil in production.
	Faults *TrainFaults
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

// fitState carries the reusable buffers of one Fit run: the per-slot
// shadow replicas (slot i of a minibatch accumulates sequence i's
// gradients; the validation pass reuses one shadow per worker), the
// per-slot RNGs, and the slot-ordered loss/term/seed arrays every
// parallel section writes into.
type fitState struct {
	pool    *Pool
	shadows []*Net
	grads   [][]float64 // each shadow's gradient vector, reduced in slot order
	rngs    []*stats.RNG
	seeds   []int64
	loss    []float64
	terms   []int
}

func newFitState(n *Net, data []Sequence, tc TrainConfig, nVal int) *fitState {
	st := &fitState{pool: NewPool(tc.Workers)}
	slots := tc.Batch
	if w := st.pool.Workers(); slots < w {
		slots = w
	}
	// Every replica's arena is grown here, once, to the longest sequence
	// forwardBackward will see, so the fit's allocation count does not
	// depend on which sequences land on which slot.
	longest := 0
	for i := range data {
		if l := len(data[i].Taus); l > longest {
			longest = l
		}
	}
	if tc.MaxSeq > 0 && longest > tc.MaxSeq {
		longest = tc.MaxSeq
	}
	st.shadows = make([]*Net, slots)
	st.grads = make([][]float64, slots)
	st.rngs = make([]*stats.RNG, slots)
	for i := range st.shadows {
		st.shadows[i] = n.Shadow()
		st.grads[i] = st.shadows[i].all.G
		st.shadows[i].arenaFor(longest, i < tc.Batch) // slots past Batch only validate
		st.rngs[i] = stats.NewRNG(0)                  // reseeded before every use
	}
	st.seeds = make([]int64, tc.Batch)
	size := tc.Batch
	if nVal > size {
		size = nVal
	}
	st.loss = make([]float64, size)
	st.terms = make([]int, size)
	return st
}

// Fit trains the network on data by maximizing Eq. 5 (log-likelihood
// of observed residuals plus survival probability of open intervals)
// with Adam, early-stopping on a withheld validation split. Fit may be
// called repeatedly (warm start); Version increments on return.
//
// Minibatches are data-parallel across tc.Workers goroutines with a
// deterministic reduction: each sequence accumulates into its own
// shadow gradient buffer, drawn ages come from a per-sequence RNG
// stream seeded serially from the master RNG, and shards are reduced
// into the optimizer's gradients in sequence-index order. Adam
// therefore sees byte-identical gradients — and Fit returns
// byte-identical results — for every worker count.
func (n *Net) Fit(data []Sequence, tc TrainConfig) TrainResult {
	tc.Defaults()
	res := TrainResult{Sequences: len(data), Parameters: n.NumParams()}
	if len(data) == 0 {
		n.Version++
		return res
	}
	g := stats.NewRNG(tc.Seed)
	idx := g.Perm(len(data))
	nVal := int(valFrac * float64(len(data)))
	if nVal >= len(data) {
		nVal = len(data) - 1
	}
	val, train := idx[:nVal], idx[nVal:]

	st := newFitState(n, data, tc, nVal)
	defer st.pool.Close() // release parked workers when this fit's batches are done
	opt := NewAdam(learningRate, []*Param{n.all})
	best := math.Inf(1)
	bestW := n.snapshot()
	badEpochs := 0

	// The guard's rollback token: the exact pre-fit weights. bestW
	// above is overwritten as validation improves, so a tripped guard
	// restores this separate snapshot instead.
	preFit := n.snapshot()
	bestEpochNLL := math.Inf(1)

	// The pool tasks and the shuffle's swap are built once and read
	// start through the closure: a closure per minibatch would be a heap
	// allocation per minibatch.
	var start int
	trainTask := func(w, i int) {
		rng := st.rngs[i]
		rng.Reseed(st.seeds[i])
		st.loss[i], st.terms[i] = st.shadows[i].forwardBackward(&data[train[start+i]], rng, tc, true)
	}
	valTask := func(w, vi int) {
		st.loss[vi], st.terms[vi] = st.shadows[w].forwardBackward(&data[val[vi]], nil, tc, false)
	}
	swap := func(i, j int) { train[i], train[j] = train[j], train[i] }

	for epoch := 0; epoch < tc.MaxEpochs; epoch++ {
		res.Epochs = epoch + 1
		g.Shuffle(len(train), swap)
		terms := 0
		lossSum := 0.0
		for start = 0; start < len(train); start += tc.Batch {
			end := start + tc.Batch
			if end > len(train) {
				end = len(train)
			}
			bl := end - start
			// Per-sequence seeds come off the master RNG serially, so
			// its stream never depends on the worker count.
			for i := 0; i < bl; i++ {
				st.seeds[i] = g.Int63()
			}
			st.pool.ParallelFor(bl, trainTask)
			// Fixed-order reduction: shard gradients fold into the
			// master in sequence-index order, never worker order, and
			// each shard's vector is left zeroed for its next sequence.
			// Everything below this point — fault injection, the guard
			// checks, Adam's clip — runs serially on the reduced state,
			// so the guard cannot break Workers bit-determinism.
			batchLoss := 0.0
			batchTerms := 0
			for i := 0; i < bl; i++ {
				batchLoss += st.loss[i]
				terms += st.terms[i]
				batchTerms += st.terms[i]
			}
			reduceZero(n.all.G, st.grads[:bl])
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

		st.pool.ParallelFor(len(val), valTask)
		vLoss, vTerms := 0.0, 0
		for vi := range val {
			vLoss += st.loss[vi]
			vTerms += st.terms[vi]
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

// trainArena is the scratch one replica's forwardBackward reuses from
// sequence to sequence, so a fit allocates per replica, not per
// timestep. Its matrices have one row per MLP input — row i timestep i,
// row m the survival term — and grow to the longest sequence the
// replica has seen (at most MaxSeq, plus the survival row); they are
// never shrunk. The arena belongs to the replica, so a Fit's arenas are
// released with its fitState and a serving net, which never trains,
// never builds one.
//
// Reuse keeps the arithmetic of freshly allocated buffers only if
// every buffer that is accumulated into (+=) starts from zero:
// forwardBackward zeroes dAW/dAMu/dAS (NLLGrad adds), backwardRows
// zeroes dx before each row (matTVecAdd adds), and Fit's reduction
// (reduceZero) zeroes the replica's gradient vector as it folds it into
// the master's. Everything else is overwritten before it is read.
type trainArena struct {
	h, dh, dhPrev  []float64
	mix            Mixture
	mlp            mlpRows     // the MLP's inputs and activations, a row per loss term
	target         []float64   // each row's normalized residual, or survival threshold
	dAW, dAMu, dAS []float64   // the loss's gradients on the head activations, rows as mlp's (train only)
	caches         []*gruCache // recurrent activations of timestep i (train only)
	dx             []float64   // one row's gradient on a layer's input (backwardRows)
}

// arenaFor returns n's arena with rows for an m-step sequence and its
// survival term.
func (n *Net) arenaFor(m int, train bool) *trainArena {
	a := n.arena
	if a == nil {
		H := n.Cfg.Hidden
		a = &trainArena{
			h: make([]float64, H), dh: make([]float64, H), dhPrev: make([]float64, H),
			dx: make([]float64, max(n.Cfg.MLPHidden, H+2)),
		}
		n.arena = a
	}
	rows, k := m+1, n.Cfg.K
	if len(a.target) < rows {
		a.mlp = n.newMLPRows(rows)
		a.target = make([]float64, rows)
	}
	if train && len(a.dAW) < rows*k {
		a.dAW, a.dAMu, a.dAS = make([]float64, rows*k), make([]float64, rows*k), make([]float64, rows*k)
	}
	for train && len(a.caches) < m {
		a.caches = append(a.caches, n.cell.newCache())
	}
	return a
}

// forwardBackward runs one sequence through the network, returning the
// summed loss and the number of loss terms. With train=true it
// accumulates parameter gradients (ages drawn ~ U[0, τ] per Eq. 5);
// with train=false it evaluates the loss alone, deterministically (age
// = τ/2). It is called on shadow replicas from Fit's worker goroutines,
// so it must only touch n's own (per-shadow) state plus the shared
// weights. All scratch comes from n's arena: in steady state it
// allocates nothing.
//
// It runs in three passes. The GRU has a recurrence and the MLP does
// not, so the MLP's work is batched over the sequence's rows:
//
//  1. the GRU over the sequence: input row i is the embedding before
//     step i with the size and an age feature, the survival row (last)
//     the final embedding, the ages drawn in sequence order;
//  2. the MLP over every row at once, then each row's loss term;
//  3. the MLP's backward over every row (backwardRows), which leaves
//     each row's gradient on its embedding, then BPTT through the GRU
//     chain from the last step to the first.
func (n *Net) forwardBackward(seq *Sequence, g *stats.RNG, tc TrainConfig, train bool) (float64, int) {
	taus := seq.Taus
	if tc.MaxSeq > 0 && len(taus) > tc.MaxSeq {
		taus = taus[len(taus)-tc.MaxSeq:]
	}
	m := len(taus)
	ts := n.Cfg.TimeScale
	fSize := featSize(seq.Size)

	a := n.arenaFor(m, train)
	h := a.h
	zero(h)
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
		n.setInput(&a.mlp, i, h, fSize, n.featAge(age))
		a.target[i] = residual / ts
		var c *gruCache
		if train {
			c = a.caches[i]
		}
		n.cell.Step(n.featTau(tau), h, c, h)
	}
	rows := m
	if seq.Survival > 0 {
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
		n.setInput(&a.mlp, m, h, fSize, n.featAge(age))
		a.target[m] = thresh / ts
		rows++
	}

	n.forwardRows(&a.mlp, rows)
	mix := &a.mix
	loss := 0.0
	if !train {
		for i := 0; i < rows; i++ {
			n.mixture(&a.mlp, i, mix)
			if i < m {
				loss += mix.NLL(a.target[i])
			} else {
				loss += mix.SurvivalNLL(a.target[i])
			}
		}
		return loss, rows
	}
	k := n.Cfg.K
	zero(a.dAW[:rows*k])
	zero(a.dAMu[:rows*k])
	zero(a.dAS[:rows*k])
	for i := 0; i < rows; i++ {
		n.mixture(&a.mlp, i, mix)
		dW, dMu, dS := a.dAW[i*k:(i+1)*k], a.dAMu[i*k:(i+1)*k], a.dAS[i*k:(i+1)*k]
		if i < m {
			loss += mix.NLLGrad(a.target[i], dW, dMu, dS)
		} else {
			loss += mix.SurvivalNLLGrad(a.target[i], dW, dMu, dS)
		}
	}

	n.backwardRows(a, rows)
	H := n.Cfg.Hidden
	embGrad := func(i int) []float64 { return a.mlp.in[i*(H+2) : i*(H+2)+H] }
	dh, dhPrev := a.dh, a.dhPrev
	zero(dh)
	if rows > m {
		axpy(1, embGrad(m), dh)
	}
	for i := m - 1; i >= 0; i-- {
		n.cell.Backward(a.caches[i], dh, dhPrev)
		copy(dh, dhPrev)
		axpy(1, embGrad(i), dh)
	}
	return loss, rows
}

// abortDiverged finalizes a guard-tripped Fit: the pre-fit snapshot
// is restored bit-identically, Version stays unchanged (cached
// embeddings computed against these weights remain valid), and the
// result reports why training was abandoned.
func (n *Net) abortDiverged(res *TrainResult, preFit []float64, best float64, reason string) TrainResult {
	n.restore(preFit)
	res.Diverged = true
	res.GuardReason = reason
	if !math.IsInf(best, 1) {
		res.ValNLL = best
	}
	return *res
}

// snapshot returns a copy of every weight, in Params() order.
func (n *Net) snapshot() []float64 { return append([]float64(nil), n.all.W...) }

func (n *Net) copyInto(dst []float64) { copy(dst, n.all.W) }

func (n *Net) restore(src []float64) { copy(n.all.W, src) }
