package core

import (
	"math"
	"time"
	"unsafe"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/nn/ckpt"
	"raven/internal/obs"
	"raven/internal/stats"
)

// Raven is the learning cache policy. Create it with New; it
// implements cache.Policy and falls back to LRU until its first model
// is trained (§4.1).
type Raven struct {
	cfg Config
	net *nn.Net
	rng *stats.RNG

	tab   *table // per-object state: history store, LRU order, sample array (table.go)
	now   int64
	begun bool

	window *window
	// topVer is the highest nn.Net.Version the policy has installed. A
	// fresh network starts there, so its first fit moves it past every
	// embVer/scoreVer stamp a discarded network left in the table.
	topVer int

	// Eviction inference state (fastpath.go, priority.go): the joint
	// win count's scratch, the f32 scratch (Inference32; the frozen weights
	// are cached on the net), the f64 batch scratch, and the per-decision
	// SLO overrun streak.
	mc        *mcScratch
	scr32     *nn.Scratch32
	pred      *nn.PredictScratch
	sloStreak int
	// forceRescore treats every candidate as dirty — test hook that
	// turns the score cache into its own uncached reference.
	forceRescore bool

	// Scratch buffers reused across evictions.
	scrIdx   []int
	scrMix   []nn.Mixture
	scrKeys  []cache.Key
	scrSize  []int64
	scrScore []float64
	scrRec   []*rec
	scrDirty []int
	scrIn    []nn.PredictInput

	// predMix is the persistent one-row mixture scratch for the
	// closed-form next-arrival predictions (arrival.go; no RNG draws).
	predMix [1]nn.Mixture

	// Model-lifecycle state (health.go): the consecutive-guard-trip
	// counter the health state is derived from, lifecycle metrics, and
	// the checkpoint store.
	trips     int
	obs       *obs.RavenObs
	store     *ckpt.Store
	completed int // non-diverged trainings (checkpoint cadence)
	// windows counts the TrainRecords ever appended. The per-window
	// shuffle seed and the fault-drill cut-off read it, not
	// len(TrainStats), so bounding that slice cannot change what any
	// window trains.
	windows int

	// TrainStats records every completed training run (Table 7 and the
	// overhead discussion of §6.1.1).
	TrainStats []TrainRecord

	// HealthLog holds the last healthLogCap health transitions, oldest
	// first; raven.health_transitions counts every one.
	HealthLog []HealthTransition

	// CkptResume reports what checkpoint resume found at
	// construction; CkptErr holds the most recent checkpoint
	// save/load error (checkpointing is best-effort and never fails
	// the policy).
	CkptResume ckpt.LoadInfo
	CkptErr    error
}

// TrainRecord captures one training window's dataset and outcome.
type TrainRecord struct {
	WindowEnd int64
	Objects   int
	Samples   int // total loss terms (interarrival + survival)
	// Skipped is always false: every window with data trains. It is
	// kept only because benchmark/traced.go still reads it.
	Skipped bool
	// RolledBack marks windows whose training diverged (the guard
	// tripped) and whose weights were rolled back to the last good
	// network; Result.GuardReason says why.
	RolledBack bool
	Result     nn.TrainResult
}

// New returns a Raven policy. cfg.TrainWindow must be positive.
func New(cfg Config) *Raven {
	cfg.defaults()
	if cfg.TrainWindow <= 0 {
		panic("core: Config.TrainWindow must be positive")
	}
	r := &Raven{
		cfg: cfg,
		rng: stats.NewRNG(cfg.Seed),
		tab: newTable(&cfg.Obs.TableBytes),
		mc:  newMCScratch(),
		obs: cfg.Obs,
	}
	// §4.1 samples up to 5× the cache size.
	r.window = newWindow(5*cfg.Capacity, cfg.MaxTrainObjects, cfg.Train.MaxSeq, stats.NewRNG(cfg.Seed+3))
	r.resumeCheckpoint()
	return r
}

// resumeCheckpoint opens the configured checkpoint store and installs
// the newest valid generation, skipping corrupt ones. Failures are
// recorded (CkptErr, raven.ckpt_* metrics) but never propagate: a
// cache that cannot read its checkpoints starts cold, it does not
// crash.
func (r *Raven) resumeCheckpoint() {
	if r.cfg.Checkpoint.Dir == "" {
		return
	}
	st, err := ckpt.Open(r.cfg.Checkpoint.Dir)
	if err != nil {
		r.ckptError(err)
		return
	}
	r.store = st
	net, info, err := st.LoadNewest()
	r.CkptResume = info
	if info.CorruptSkipped > 0 {
		r.obs.CkptCorruptSkipped.Add(int64(info.CorruptSkipped))
	}
	if err != nil {
		r.ckptError(err)
		return
	}
	if net != nil {
		// The resumed net's embedded nn.Config (TimeScale, dims)
		// supersedes cfg.Net — it describes the weights being loaded.
		r.net = net
		r.topVer = net.Version
	}
}

// ckptError records a best-effort checkpoint failure.
func (r *Raven) ckptError(err error) {
	r.CkptErr = err
	r.obs.CkptErrors.Inc()
}

// saveCheckpoint persists the model after a completed training,
// honoring the Checkpoint.Every cadence.
func (r *Raven) saveCheckpoint() {
	if r.store == nil || r.net == nil {
		return
	}
	r.completed++
	if r.completed%r.cfg.Checkpoint.Every != 0 {
		return
	}
	if _, err := r.store.Save(r.net); err != nil {
		r.ckptError(err)
		return
	}
	r.obs.CkptSaves.Inc()
}

// Name implements cache.Policy.
func (r *Raven) Name() string {
	if r.cfg.Goal == GoalOHR {
		return "raven-ohr"
	}
	return "raven"
}

// MetadataBytesPerObject implements cache.Footprinter: what one cached
// object costs in the record table at most — its core record, side
// record, a full interarrival ring and embedding (§6.1.1). The index
// slot is not counted.
func (r *Raven) MetadataBytesPerObject() int64 {
	state := r.cfg.Net.Hidden
	if r.net != nil {
		state = r.net.Cfg.Hidden
	}
	return RecordBytes + int64(unsafe.Sizeof(resRec{})) + RingBytes + 8*int64(state)
}

// RecordBytes is what every known key costs in the record table,
// cached or not: the core record. From its second sighting a key also
// holds a ring: 8 B per tau of its class, RingBytes once it holds the
// full history.
const (
	RecordBytes = int64(unsafe.Sizeof(rec{}))
	RingBytes   = 8 * historyLen
)

// Net returns the current model (nil before the first training).
func (r *Raven) Net() *nn.Net { return r.net }

// observe advances virtual time, maintains the object's history and
// embedding, collects training data, and retrains at window
// boundaries. It runs once per request (hit or miss) and returns the
// key's record handle: the one key lookup the policy makes per request.
func (r *Raven) observe(req cache.Request) uint32 {
	if !r.begun {
		r.begun = true
		r.window.reset(req.Time)
	}
	r.now = req.Time
	t := r.tab

	h := t.find(req.Key)
	fresh := h == 0
	if fresh {
		h = t.insert(req.Key, req.Time)
		r.obs.HistoryRecords.Add(1)
		r.trim(h)
	}
	rc := t.recs.At(h)
	r.window.record(req, h)
	if !fresh {
		tau := float64(req.Time - rc.lastSeen)
		if tau < 1 {
			tau = 1
		}
		t.pushTau(rc, tau)
		rc.lastSeen = req.Time
		resident := false
		if rc.res != 0 {
			sd := t.sides.At(rc.res)
			resident = sd.pos >= 0
			sd.size = req.Size
			sd.epoch++ // the history advanced: any cached score is now stale
			if r.net != nil && int(sd.embVer) == r.net.Version {
				r.net.StepEmbed(t.emb(sd), tau)
			} else if !resident {
				// A ghost kept for an embedding that a model swap has
				// since made stale.
				t.releaseSide(rc)
			}
		}
		if !resident {
			t.ghosts.moveToFront(&t.recs, h)
		}
	}

	if req.Time-r.window.start >= r.cfg.TrainWindow {
		r.train()
		r.window.reset(req.Time)
	}
	return h
}

// trim bounds the history store. It runs when a new key (record keep)
// arrives and the table is at its ceiling, and drops from the old end
// of the age queue: every ghost not seen for two training windows, or
// else the single oldest one. One record in, at least one out, so the
// record count cannot pass the largest value the ceiling has taken,
// and a new key costs O(1) amortized — nothing on the request path
// walks the table.
func (r *Raven) trim(keep uint32) {
	t := r.tab
	if t.index.Len() < t.ceiling() {
		return
	}
	horizon := r.now - 2*r.cfg.TrainWindow
	dropped := 0
	for {
		old := t.ghosts.back
		t.examined++
		if old == 0 || old == keep || (dropped > 0 && t.recs.At(old).lastSeen >= horizon) {
			break
		}
		r.window.forget(old)
		t.drop(old)
		dropped++
	}
	r.obs.HistoryRecords.Add(-int64(dropped))
	r.obs.HistoryDropped.Add(int64(dropped))
}

// train fits the MDN on the just-finished window (§4.4), warm-started
// from the current network.
func (r *Raven) train() {
	data, terms := r.window.sequences(r.now)
	if len(data) == 0 {
		return
	}
	if r.cfg.DisableSurvival {
		// The same sequences, so the same draws, without their open
		// intervals: Fit takes the survival term only where it is > 0.
		for i := range data {
			if data[i].Survival > 0 {
				data[i].Survival = 0
				terms--
			}
		}
	}
	// A network with non-finite weights (corrupt resume that slipped
	// validation, runtime overflow) cannot be trained out of NaN —
	// discard it and fit fresh. Counted as a rollback: the "last good
	// network" here is none.
	if r.net != nil && !r.net.FiniteWeights() {
		r.net = nil
		r.invalidateFastPath()
		r.obs.Rollbacks.Inc()
	}
	fresh := r.net == nil
	if fresh {
		cfg := r.cfg.Net
		if cfg.TimeScale == 0 { //lint:allow float-equal zero TimeScale means unset; derive the default
			cfg.TimeScale = meanTau(data, float64(r.cfg.TrainWindow)/1000)
		}
		r.net = nn.NewNet(cfg)
		r.net.Version = r.topVer
		r.invalidateFastPath()
	}
	tc := r.cfg.Train
	tc.Seed += int64(r.windows) // vary shuffles between windows
	if tc.Faults != nil && r.cfg.TrainFaultWindows > 0 && r.windows >= r.cfg.TrainFaultWindows {
		tc.Faults = nil // fault drill over; train clean from here on
	}
	res := r.net.Fit(data, tc)
	r.obs.TrainEpochs.Add(int64(res.Epochs))
	r.obs.TrainSequences.Add(int64(res.Sequences))
	rec := TrainRecord{
		WindowEnd: r.now,
		Objects:   len(data),
		Samples:   terms,
		Result:    res,
	}
	if res.Diverged {
		// Fit restored the pre-fit weights bit for bit, so a warm net is
		// already the last good network; a fresh one had none.
		if fresh {
			r.net = nil
		}
		rec.RolledBack = true
		r.obs.Rollbacks.Inc()
		r.guardTripped("training diverged: " + res.GuardReason)
	} else {
		r.topVer = r.net.Version
		r.trainSucceeded()
		r.saveCheckpoint()
		r.invalidateFastPath()
		if r.cfg.Inference32 {
			// Quantize the freshly fitted weights now, off the decision
			// path, so the first post-swap eviction pays no freeze.
			r.net.Freeze32()
		}
	}
	r.TrainStats = append(r.TrainStats, rec)
	r.windows++
}

// meanTau averages the finite, positive interarrival times of the
// window. Zeros left by the degenerate-interarrival clamp and any
// non-finite value are excluded so a pathological window can never
// poison the derived TimeScale; with nothing usable the fallback
// (itself sanitized) is returned.
func meanTau(data []nn.Sequence, fallback float64) float64 {
	if fallback <= 0 || math.IsInf(fallback, 0) || math.IsNaN(fallback) {
		fallback = 1
	}
	s, n := 0.0, 0
	for i := range data {
		for _, t := range data[i].Taus {
			if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
				continue
			}
			s += t
			n++
		}
	}
	if n == 0 {
		return fallback
	}
	m := s / float64(n)
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		return fallback
	}
	return m
}

// OnHit implements cache.Policy.
func (r *Raven) OnHit(req cache.Request) {
	h := r.observe(req)
	if r.tab.resident(r.tab.recs.At(h)) {
		r.tab.lru.moveToFront(&r.tab.recs, h)
	}
}

// OnMiss implements cache.Policy.
func (r *Raven) OnMiss(req cache.Request) { r.observe(req) }

// OnAdmit implements cache.Policy. The object's record was created
// (or refreshed) by the same request's OnMiss.
func (r *Raven) OnAdmit(req cache.Request) {
	t := r.tab
	h := t.find(req.Key)
	if h == 0 {
		panic("core: OnAdmit for a key no request observed")
	}
	if t.resident(t.recs.At(h)) {
		return
	}
	t.admit(h, req.Size)
	r.obs.HistoryResident.Add(1)
}

// OnEvict implements cache.Policy. The object's record survives
// eviction; only residency state is dropped.
func (r *Raven) OnEvict(key cache.Key) {
	t := r.tab
	h := t.find(key)
	if h == 0 {
		return
	}
	rc := t.recs.At(h)
	if !t.resident(rc) {
		return
	}
	t.evict(h, r.net != nil && int(t.sides.At(rc.res).embVer) == r.net.Version)
	r.obs.HistoryResident.Add(-1)
}

// Victim implements cache.Policy: the §4.3 eviction rule, one pipeline
// for both estimators. Before the first model is trained — and
// whenever the health state machine is in Fallback — it falls back to
// LRU over the resident list. Otherwise it
//
//  1. samples the candidates;
//  2. marks which need a fresh residual-time mixture: every one under
//     the joint win count, and under the score cache (Config.ScoreCache)
//     only those whose stamped score is stale;
//  3. embeds and predicts those in chunks (fastpath.go predict), each
//     chunk followed by the finiteness gate and, with
//     Config.DecisionBudget armed, the deadline check — an insane
//     mixture or an overrun abandons the decision to LRU;
//  4. scores the candidates: the joint win count of Eq. 1c, or each
//     object's stamped next-arrival time;
//  5. evicts the goal-weighted argmax.
func (r *Raven) Victim() (cache.Key, bool) {
	t := r.tab
	if len(t.dense) == 0 {
		return 0, false
	}
	if r.net == nil || r.Health() == Fallback {
		return r.fallbackVictim(), true
	}
	budget := r.cfg.DecisionBudget
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget) //lint:allow wall-clock the DecisionBudget deadline is the SLO feature; replay configurations leave the budget at 0
	}
	r.scrIdx = t.sampler.Sample(r.rng, len(t.dense), r.cfg.CandidateSample, r.scrIdx)
	n := len(r.scrIdx)
	r.growScratch(n)
	ver := r.net.Version
	cached := r.cfg.ScoreCache && !r.forceRescore
	dirty := r.scrDirty[:0]
	for j := 0; j < n; j++ {
		rc := t.recs.At(t.dense[r.scrIdx[j]])
		sd := t.sides.At(rc.res)
		r.scrKeys[j], r.scrSize[j], r.scrRec[j] = rc.key, sd.size, rc
		if cached && int(sd.scoreVer) == ver && sd.scoreEp == sd.epoch {
			r.scrScore[j] = sd.score
		} else {
			dirty = append(dirty, j) // into scratch sized by growScratch
		}
	}
	r.scrDirty = dirty
	r.obs.ScoreCacheHits.Add(int64(n - len(dirty)))
	r.obs.ScoreRescores.Add(int64(len(dirty)))
	if len(dirty) > 0 && !r.predict(dirty, ver, budget, deadline) {
		// predict already recorded why (scoresInsane or sloOverrun).
		return r.fallbackVictim(), true
	}
	if !r.cfg.ScoreCache && n > 1 {
		// Joint win count (Eq. 1c): the score up to the constant 1/M
		// factor, which cannot change the argmax. Every candidate was
		// dirty, so scrMix is in slot order.
		wins := r.mc.winsMC(r.scrMix, r.cfg.ResidualSamples, r.rng)
		for j, w := range wins {
			r.scrScore[j] = float64(w)
		}
	}
	// Goal-weighted argmax, slot order. For the OHR goal a score-cache
	// score is weighted as its predicted RESIDUAL (not the absolute
	// arrival time, whose magnitude would drown the size factor),
	// mirroring the §3.4 size weighting.
	best := math.Inf(-1)
	victim := 0
	for j := 0; j < n; j++ {
		s := r.scrScore[j]
		if r.cfg.Goal == GoalOHR {
			if r.cfg.ScoreCache {
				s = max(s-float64(r.now), 1)
			}
			s *= float64(r.scrSize[j])
		}
		if s > best {
			best = s
			victim = j
		}
	}
	if budget > 0 {
		r.sloMet()
	}
	// Remember the victim's record so the OnEvict that follows needs no
	// lookup.
	t.vicKey, t.vicH = r.scrKeys[victim], t.dense[r.scrIdx[victim]]
	return t.vicKey, true
}

// embedding returns rc's history embedding under the current model,
// recomputing it from the ring when a model swap made it stale. rc gets
// a side record if it has none.
func (r *Raven) embedding(rc *rec) []float64 {
	t := r.tab
	sd := t.side(rc)
	if int(sd.embVer) == r.net.Version {
		return t.emb(sd)
	}
	t.setDim(r.net.Cfg.Hidden)
	emb := t.emb(sd)
	r.net.EmbedHistoryInto(emb, t.taus(rc))
	sd.embVer = int32(r.net.Version)
	return emb
}

// fallbackVictim evicts the LRU-list tail, counting the eviction once a
// model exists: a Fallback state, an insane mixture and a
// DecisionBudget overrun each serve the decision the model was meant to
// make. Evictions before the first model are the normal warmup and stay
// uncounted.
func (r *Raven) fallbackVictim() cache.Key {
	if r.net != nil {
		r.obs.FallbackEvictions.Inc()
	}
	t := r.tab
	t.vicH = t.lru.back
	t.vicKey = t.recs.At(t.vicH).key
	return t.vicKey
}

// mixtureFinite reports whether every parameter of the predicted
// mixture is finite. Allocation-free (the eviction path must stay
// zero-alloc).
func mixtureFinite(m *nn.Mixture) bool {
	for _, v := range m.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for _, v := range m.Mu {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	for _, v := range m.S {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
