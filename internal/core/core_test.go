package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
	"raven/internal/trace"
)

// TestRingPushBounded: a ring keeps the last historyLen taus, oldest
// first, through every class it is promoted to and past the last one.
func TestRingPushBounded(t *testing.T) {
	tab := newTable(new(obs.Gauge))
	var rc rec
	var want []float64
	for i := 1; i <= historyLen+6; i++ {
		tab.pushTau(&rc, float64(i))
		want = append(want, float64(i))
		if len(want) > historyLen {
			want = want[1:]
		}
		if got := tab.taus(&rc); !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: %v, want %v", i, got, want)
		}
	}
	if c := rc.ring >> ringClassShift; c != ringClasses-1 {
		t.Errorf("a full ring is in class %d, want %d", c, ringClasses-1)
	}
	h := tab.taus(&rc)
	if len(h) != historyLen {
		t.Fatalf("len = %d, want %d", len(h), historyLen)
	}
	for i, v := range h {
		if want := float64(7 + i); v != want {
			t.Errorf("h[%d] = %v, want %v", i, v, want)
		}
	}
}

// markedWindow drives a window the way Raven does, giving each key a
// record handle of its own for the window to name it by.
type markedWindow struct {
	*window
	handles map[cache.Key]uint32
}

func newMarkedWindow(budgetBytes int64, maxObjects, maxSeq int, seed int64) *markedWindow {
	return &markedWindow{
		window:  newWindow(budgetBytes, maxObjects, maxSeq, stats.NewRNG(seed)),
		handles: map[cache.Key]uint32{},
	}
}

func (w *markedWindow) record(req cache.Request) {
	h := w.handles[req.Key]
	if h == 0 {
		h = uint32(len(w.handles) + 1)
		w.handles[req.Key] = h
	}
	w.window.record(req, h)
}

// taus returns what the window recorded for key (nil if not sampled).
func (w *markedWindow) taus(key cache.Key) []float64 {
	if h := w.handles[key]; w.taken.has(h) {
		return w.seqs[w.slots.Find(cache.Key(h))-1].Taus
	}
	return nil
}

func TestWindowRecordsInterarrivals(t *testing.T) {
	w := newMarkedWindow(0, 0, 32, 1)
	w.reset(0)
	for _, tm := range []int64{10, 30, 70} {
		w.record(cache.Request{Time: tm, Key: 5, Size: 100})
	}
	seqs, terms := w.sequences(100)
	if len(seqs) != 1 {
		t.Fatalf("want 1 sequence, got %d", len(seqs))
	}
	s := seqs[0]
	if len(s.Taus) != 2 || s.Taus[0] != 20 || s.Taus[1] != 40 {
		t.Errorf("taus = %v, want [20 40]", s.Taus)
	}
	if s.Survival != 30 {
		t.Errorf("survival = %v, want 30", s.Survival)
	}
	if terms != 3 {
		t.Errorf("terms = %d, want 3", terms)
	}
}

func TestWindowBudgetStopsNewObjects(t *testing.T) {
	w := newMarkedWindow(1000, 0, 32, 2)
	w.reset(0)
	for k := 0; k < 100; k++ {
		w.record(cache.Request{Time: int64(k), Key: cache.Key(k), Size: 100})
	}
	if w.sampledBytes > 1100 {
		t.Errorf("sampled bytes %d exceed budget substantially", w.sampledBytes)
	}
	// Existing sampled objects keep recording even after the budget.
	before := len(w.taus(0))
	w.record(cache.Request{Time: 500, Key: 0, Size: 100})
	if len(w.taus(0)) != before+1 {
		t.Error("existing sampled object stopped recording after budget")
	}
}

func TestWindowObjectCap(t *testing.T) {
	w := newMarkedWindow(0, 10, 32, 3)
	w.reset(0)
	for k := 0; k < 100; k++ {
		w.record(cache.Request{Time: int64(k), Key: cache.Key(k), Size: 1})
	}
	if len(w.sampled) > 10 {
		t.Errorf("object cap violated: %d objects sampled", len(w.sampled))
	}
}

func TestRavenFallsBackToLRUBeforeTraining(t *testing.T) {
	r := New(Config{TrainWindow: 1 << 40, Seed: 1}) // window never ends
	c := cache.New(3, r)
	for i, k := range []cache.Key{1, 2, 3, 4} {
		c.Handle(cache.Request{Time: int64(i), Key: k, Size: 1})
	}
	if r.Net() != nil {
		t.Fatal("model unexpectedly trained")
	}
	if c.Contains(1) {
		t.Error("LRU fallback should have evicted key 1")
	}
	for _, k := range []cache.Key{2, 3, 4} {
		if !c.Contains(k) {
			t.Errorf("key %d should be resident", k)
		}
	}
}

// TestNoModelCountsNoModelEvictions: a Raven that never trained serves
// every eviction from its LRU list and counts none of them as the
// model's, nor as fallback, which starts counting with the first model.
func TestNoModelCountsNoModelEvictions(t *testing.T) {
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1 << 40, Seed: 1, Obs: ro}) // window never ends
	c := cache.New(3, r)
	const n = 50
	for i := 0; i < 3+n; i++ {
		c.Handle(cache.Request{Time: int64(i), Key: cache.Key(i), Size: 1})
	}
	if r.Net() != nil {
		t.Fatal("model unexpectedly trained")
	}
	if got := c.StatsSnapshot().Evictions; got != n {
		t.Fatalf("%d evictions, want %d", got, n)
	}
	for k := cache.Key(0); k < n; k++ {
		if c.Contains(k) {
			t.Errorf("key %d resident: the evictions were not LRU's", k)
		}
	}
	if m, f := ro.ModelEvictions.Load(), ro.FallbackEvictions.Load(); m != 0 || f != 0 {
		t.Errorf("model_evictions %d, fallback_evictions %d before any model, want 0 and 0", m, f)
	}
}

func TestMCConvergesToExactPriority(t *testing.T) {
	g := stats.NewRNG(17)
	mixes := make([]nn.Mixture, 5)
	for i := range mixes {
		aW := []float64{g.NormFloat64(), g.NormFloat64()}
		aMu := []float64{g.NormFloat64(), g.NormFloat64() + 1}
		aS := []float64{g.Uniform(-1, 0.5), g.Uniform(-1, 0.5)}
		nn.MixtureFromActivations(aW, aMu, aS, &mixes[i])
	}
	exact := PriorityScoresExact(mixes, 4000)
	mc := PriorityScoresMC(mixes, 200000, g)
	for j := range mixes {
		if d := math.Abs(exact[j] - mc[j]); d > 0.02 {
			t.Errorf("candidate %d: exact %.4f vs MC %.4f (diff %.4f)", j, exact[j], mc[j], d)
		}
	}
}

func TestExactPrioritySumsToOne(t *testing.T) {
	// Property: priority scores over any candidate set form a
	// distribution (they partition the event "who is farthest").
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		n := 2 + g.Intn(5)
		mixes := make([]nn.Mixture, n)
		for i := range mixes {
			aW := []float64{g.NormFloat64(), g.NormFloat64()}
			aMu := []float64{g.Uniform(-1, 1), g.Uniform(-1, 1)}
			aS := []float64{g.Uniform(-1, 0), g.Uniform(-1, 0)}
			nn.MixtureFromActivations(aW, aMu, aS, &mixes[i])
		}
		sum := 0.0
		for _, p := range PriorityScoresExact(mixes, 2000) {
			if p < -1e-9 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPriorityPrefersFartherDistribution(t *testing.T) {
	// A mixture centered far in the future must get the higher score.
	var near, far nn.Mixture
	nn.MixtureFromActivations([]float64{0}, []float64{0}, []float64{-1}, &near)
	nn.MixtureFromActivations([]float64{0}, []float64{3}, []float64{-1}, &far)
	scores := PriorityScoresExact([]nn.Mixture{near, far}, 2000)
	if scores[1] <= scores[0] {
		t.Errorf("far score %.4f should exceed near score %.4f", scores[1], scores[0])
	}
	g := stats.NewRNG(3)
	mc := PriorityScoresMC([]nn.Mixture{near, far}, 5000, g)
	if mc[1] <= mc[0] {
		t.Errorf("MC: far score %.4f should exceed near score %.4f", mc[1], mc[0])
	}
}

func TestRavenTrainsAndEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 10000, Interarrival: trace.Poisson, Seed: 5,
	})
	window := tr.Duration() / 4
	ro := &obs.RavenObs{}
	r := New(Config{
		TrainWindow:     window,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 10, Patience: 3},
		ResidualSamples: 30,
		Seed:            7,
		Obs:             ro,
	})
	c := cache.New(40, r) // 40 unit-size objects
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if r.Net() == nil {
		t.Fatal("Raven never trained a model")
	}
	if len(r.TrainStats) < 2 {
		t.Errorf("expected multiple training windows, got %d", len(r.TrainStats))
	}
	if ro.ModelEvictions.Load() == 0 {
		t.Error("the trained model decided no eviction (raven.model_evictions 0)")
	}
	st := c.StatsSnapshot()
	if st.OHR() < 0.05 {
		t.Errorf("suspiciously low hit ratio %.3f", st.OHR())
	}
	for _, rec := range r.TrainStats {
		if rec.Objects == 0 || rec.Samples == 0 {
			t.Errorf("empty training record: %+v", rec)
		}
	}
}

func TestRavenOHRGoalUsesSizeWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	// With identical residual distributions, the OHR variant must
	// prefer evicting the larger object. Construct this directly via
	// the priority computation on a trained-ish policy by running a
	// trace with two size classes and checking eviction counts favour
	// large objects.
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 12000, Interarrival: trace.Poisson,
		VariableSizes: true, SizeLo: 10, SizeHi: 1000, Seed: 9,
	})
	window := tr.Duration() / 3
	mk := func(goal Goal) *cache.Sharded {
		r := New(Config{
			Goal:            goal,
			TrainWindow:     window,
			MaxTrainObjects: 200,
			Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
			Train:           nn.TrainConfig{MaxEpochs: 8, Patience: 3},
			ResidualSamples: 30,
			Seed:            11,
		})
		c := cache.New(tr.UniqueBytes()/10, r)
		for _, req := range tr.Reqs {
			c.Handle(req)
		}
		return c
	}
	ohr := mk(GoalOHR)
	bhr := mk(GoalBHR)
	if ohr.StatsSnapshot().OHR() < bhr.StatsSnapshot().OHR()-0.05 {
		t.Errorf("OHR goal (%.3f) should not lag BHR goal (%.3f) on object hits by this much",
			ohr.StatsSnapshot().OHR(), bhr.StatsSnapshot().OHR())
	}
}

// refWindow is the window as it stood when each key's record carried a
// winMark — the window's generation when it first saw the key, and the
// key's slot in the sample or -1 — kept here in a map by key. A key the
// table drops loses its mark with its record, so if it comes back it is
// new to the window.
type refWindow struct {
	budgetBytes  int64
	maxObjects   int
	maxSeq       int
	rng          *stats.RNG
	gen          uint32
	marks        map[cache.Key]*refMark
	sampledBytes int64
	sampled      []refSample
	sampleProb   float64
}

type refSample struct {
	key        cache.Key
	last, size int64
	taus       []float64
}

type refMark struct {
	gen  uint32
	slot int32
}

func (w *refWindow) reset() {
	w.gen++
	w.sampledBytes, w.sampled, w.sampleProb = 0, nil, 1
}

func (w *refWindow) record(req cache.Request) {
	m := w.marks[req.Key]
	if m == nil {
		m = &refMark{}
		w.marks[req.Key] = m
	}
	if m.gen == w.gen {
		if m.slot < 0 {
			return
		}
		s := &w.sampled[m.slot]
		tau := max(float64(req.Time-s.last), 1)
		if w.maxSeq > 0 && len(s.taus) >= 2*w.maxSeq {
			s.taus = append(slices.Clone(s.taus[1:]), tau)
		} else {
			s.taus = append(s.taus, tau)
		}
		s.last = req.Time
		return
	}
	m.gen = w.gen
	full := (w.budgetBytes > 0 && w.sampledBytes >= w.budgetBytes) ||
		(w.maxObjects > 0 && len(w.sampled) >= w.maxObjects)
	if full || w.rng.Float64() >= w.sampleProb {
		m.slot = -1
		return
	}
	m.slot = int32(len(w.sampled))
	w.sampled = append(w.sampled, refSample{key: req.Key, last: req.Time, size: req.Size})
	w.sampledBytes += req.Size
	if frac := float64(w.sampledBytes) / float64(w.budgetBytes); w.budgetBytes > 0 && frac > 0.5 {
		w.sampleProb = max(1-(frac-0.5)*1.6, 0.05)
	}
}

// sequences lists the samples by key, ties in sampling order.
func (w *refWindow) sequences(end int64) (out []nn.Sequence) {
	byKey := slices.Clone(w.sampled)
	slices.SortStableFunc(byKey, func(a, b refSample) int { return cmp.Compare(a.key, b.key) })
	for _, s := range byKey {
		seq := nn.Sequence{Taus: s.taus, Size: float64(s.size), Survival: float64(end - s.last)}
		if len(seq.Taus) > 0 || seq.Survival > 0 {
			out = append(out, seq)
		}
	}
	return out
}

// TestWindowMatchesReference: over random streams, budgets, object caps
// and sequence caps, and several windows in a row, Raven's handle-keyed
// window, fed through observe, takes the same keys with the same taus
// as the winMark reference, yields the same sequences at every
// rollover, and leaves its RNG at the same position. Most runs have a
// ghost floor so small that the trim drops sampled keys mid-window and
// reissues their handles to new keys; one in four keeps every key.
func TestWindowMatchesReference(t *testing.T) {
	var droppedTaken, reissued, rollovers, budgetFull, capFull, seqCut, keptAll int
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		budget, maxObj, maxSeq := int64(g.Intn(3))*400, g.Intn(3)*20, 1+g.Intn(4)
		r := New(Config{TrainWindow: 1 << 40, Seed: seed})
		r.tab.floor = 4 + g.Intn(12)
		if g.Intn(4) == 0 {
			r.tab.floor = 1 << 20
			keptAll++
		}
		r.window = newWindow(budget, maxObj, maxSeq, stats.NewRNG(seed))
		ref := &refWindow{budgetBytes: budget, maxObjects: maxObj, maxSeq: maxSeq, rng: stats.NewRNG(seed), marks: map[cache.Key]*refMark{}}
		ref.reset()
		seenHandles := map[uint32]bool{} // handles the window saw this window
		now := int64(0)
		for win := 0; win < 5; win++ {
			for i := 100 + g.Intn(400); i > 0; i-- {
				now += int64(g.Intn(3))
				req := cache.Request{Time: now, Key: cache.Key(g.Intn(60)), Size: 1 + int64(g.Intn(40))}
				fresh := r.tab.index.Find(req.Key) == 0
				r.OnMiss(req)
				h := r.tab.index.Find(req.Key)
				if fresh && seenHandles[h] {
					reissued++
				}
				seenHandles[h] = true
				for k, m := range ref.marks {
					if r.tab.index.Find(k) == 0 {
						if m.gen == ref.gen && m.slot >= 0 {
							droppedTaken++
						}
						delete(ref.marks, k)
					}
				}
				ref.record(req)
				if budget > 0 && ref.sampledBytes >= budget {
					budgetFull++
				}
				if maxObj > 0 && len(ref.sampled) >= maxObj {
					capFull++
				}
				for _, s := range ref.sampled {
					if len(s.taus) == 2*maxSeq {
						seqCut++
					}
				}
				w := r.window
				same := len(w.sampled) == len(ref.sampled) && len(w.seqs) == len(w.sampled)
				for i := 0; same && i < len(ref.sampled); i++ {
					a, q, b := w.sampled[i], w.seqs[i], ref.sampled[i]
					same = a.key == b.key && a.last == b.last && q.Size == float64(b.size) && slices.Equal(q.Taus, b.taus)
				}
				if !same {
					t.Logf("seed %d window %d: sampled %d keys, reference %d", seed, win, len(r.window.sampled), len(ref.sampled))
					return false
				}
			}
			got, _ := r.window.sequences(now)
			want := ref.sequences(now)
			if !slices.EqualFunc(got, want, func(a, b nn.Sequence) bool {
				return a.Size == b.Size && a.Survival == b.Survival && slices.Equal(a.Taus, b.Taus)
			}) {
				t.Logf("seed %d window %d: %d sequences, reference %d", seed, win, len(got), len(want))
				return false
			}
			if a, b := r.window.rng.Int63(), ref.rng.Int63(); a != b {
				t.Logf("seed %d window %d: the RNGs have drifted apart", seed, win)
				return false
			}
			r.window.reset(now)
			ref.reset()
			clear(seenHandles)
			rollovers++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if droppedTaken == 0 || reissued == 0 || rollovers == 0 || budgetFull == 0 || capFull == 0 || seqCut == 0 || keptAll == 0 {
		t.Errorf("coverage: %d sampled keys dropped mid-window, %d handles reissued within a window, %d rollovers, "+
			"%d requests at a full budget, %d at the object cap, %d at the sequence cap, %d runs that keep every key; want each > 0",
			droppedTaken, reissued, rollovers, budgetFull, capFull, seqCut, keptAll)
	}
}
