package core

import (
	"sort"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
)

// window collects training data over one training window (§4.1):
// uniformly sampled objects (never biased towards popular ones) whose
// arrival times are recorded until the window ends. The sample stops
// admitting new objects once its unique bytes exceed the budget
// (the paper caps it at 5× the cache size) or the object cap is hit.
//
// The window names a key by its record handle, which the caller has
// already resolved, so recording a request needs no lookup of the key:
// two bitsets over the handles say whether the window has seen a key
// and whether it took it, and only a taken key's handle is looked up to
// find its sample. A handle the table drops must be forgotten before it
// is reissued, so that the next key to hold it starts unseen.
type window struct {
	start       int64
	budgetBytes int64
	maxObjects  int
	maxSeq      int
	rng         *stats.RNG

	seen, taken bitset
	// slots resolves a taken handle to 1 + its index in sampled.
	slots        *cache.HandleIndex
	sampledBytes int64
	// sampled[i] and seqs[i] are the i-th sampled object: its key and
	// arrival bookkeeping, and the training sequence it records into,
	// which sequences hands to Fit where it lies.
	sampled []winSample
	seqs    []nn.Sequence
	// sampleProb adapts downward as the budget fills so the sample
	// stays uniform-ish across the window rather than front-loaded.
	sampleProb float64
}

// winSample is one sampled object's record for the window; its
// interarrivals and size are in the nn.Sequence at its index in seqs.
type winSample struct {
	key  cache.Key
	h    uint32 // the record handle the key held when it was taken
	last int64
}

// bitset is a set of record handles; it grows to the highest handle set.
type bitset []uint64

func (b bitset) has(h uint32) bool {
	i := int(h >> 6)
	return i < len(b) && b[i]&(1<<(h&63)) != 0
}

func (b *bitset) set(h uint32) {
	i := int(h >> 6)
	for len(*b) <= i {
		*b = append(*b, 0)
	}
	(*b)[i] |= 1 << (h & 63)
}

func (b bitset) unset(h uint32) {
	if i := int(h >> 6); i < len(b) {
		b[i] &^= 1 << (h & 63)
	}
}

func newWindow(budgetBytes int64, maxObjects, maxSeq int, rng *stats.RNG) *window {
	w := &window{
		budgetBytes: budgetBytes,
		maxObjects:  maxObjects,
		maxSeq:      maxSeq,
		rng:         rng,
	}
	w.slots = cache.NewHandleIndex(func(s uint32) cache.Key { return cache.Key(w.sampled[s-1].h) })
	w.reset(0)
	return w
}

func (w *window) reset(start int64) {
	w.start = start
	clear(w.seen)
	clear(w.taken)
	w.slots.Reset()
	w.sampledBytes = 0
	w.sampled = w.sampled[:0]
	clear(w.seqs) // release the finished window's interarrivals
	w.seqs = w.seqs[:0]
	w.sampleProb = 1
}

// forget makes handle h unseen: the table is about to drop its record
// and reissue the handle. A sample the key already gave stays in the
// window.
func (w *window) forget(h uint32) {
	if w.taken.has(h) {
		w.slots.Delete(cache.Key(h), w.slots.Find(cache.Key(h)))
		w.taken.unset(h)
	}
	w.seen.unset(h)
}

// record observes one request; h is the requested key's record handle.
func (w *window) record(req cache.Request, h uint32) {
	if w.seen.has(h) {
		if !w.taken.has(h) {
			return
		}
		i := w.slots.Find(cache.Key(h)) - 1
		s, q := &w.sampled[i], &w.seqs[i]
		tau := float64(req.Time - s.last)
		if tau < 1 {
			tau = 1
		}
		if w.maxSeq > 0 && len(q.Taus) >= 2*w.maxSeq {
			// Keep the most recent interarrivals only.
			copy(q.Taus, q.Taus[1:])
			q.Taus[len(q.Taus)-1] = tau
		} else {
			q.Taus = append(q.Taus, tau)
		}
		s.last = req.Time
		return
	}
	w.seen.set(h)
	full := (w.budgetBytes > 0 && w.sampledBytes >= w.budgetBytes) ||
		(w.maxObjects > 0 && len(w.sampled) >= w.maxObjects)
	if full || w.rng.Float64() >= w.sampleProb {
		return
	}
	w.taken.set(h)
	w.sampled = append(w.sampled, winSample{key: req.Key, h: h, last: req.Time})
	w.seqs = append(w.seqs, nn.Sequence{Size: float64(req.Size)})
	w.slots.Insert(cache.Key(h), uint32(len(w.sampled)))
	w.sampledBytes += req.Size
	// Tighten the sampling probability as capacity fills.
	if w.budgetBytes > 0 {
		frac := float64(w.sampledBytes) / float64(w.budgetBytes)
		if frac > 0.5 {
			w.sampleProb = 1 - (frac-0.5)*1.6 // → 0.2 at full budget
			if w.sampleProb < 0.05 {
				w.sampleProb = 0.05
			}
		}
	}
}

// sequences converts the window into training sequences, attaching
// each object's survival interval up to windowEnd. It returns the
// sequences and the total number of loss terms. Objects are visited in
// key order (a key the history store dropped and saw again mid-window
// is sampled afresh, so ties break by sampling order) to keep training
// independent of arrival order within the window.
//
// The sequences are the window's own: sampled and seqs are sorted
// together by key and seqs compacted, so the window must be reset
// before it records again.
func (w *window) sequences(windowEnd int64) ([]nn.Sequence, int) {
	for i := range w.seqs {
		w.seqs[i].Survival = float64(windowEnd - w.sampled[i].last)
	}
	sort.Stable((*byKey)(w))
	out := w.seqs[:0]
	terms := 0
	for _, seq := range w.seqs {
		if len(seq.Taus) == 0 && seq.Survival <= 0 {
			continue
		}
		terms += len(seq.Taus)
		if seq.Survival > 0 {
			terms++
		}
		out = append(out, seq)
	}
	return out, terms
}

// byKey sorts a window's samples, and their sequences with them, by key.
type byKey window

func (b *byKey) Len() int           { return len(b.sampled) }
func (b *byKey) Less(i, j int) bool { return b.sampled[i].key < b.sampled[j].key }
func (b *byKey) Swap(i, j int) {
	b.sampled[i], b.sampled[j] = b.sampled[j], b.sampled[i]
	b.seqs[i], b.seqs[j] = b.seqs[j], b.seqs[i]
}
