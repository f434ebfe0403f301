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
	start int64
	begun bool

	window *window
	drift  *driftDetector

	// Eviction fan-out state. pool runs the per-candidate embed+predict
	// and MC sampling loops; infNets/infPred are one shadow network and
	// prediction scratch per worker (rebuilt lazily after a model swap);
	// candTask is the pre-bound candidate closure so Victim never
	// allocates one.
	pool     *nn.Pool
	infNets  []*nn.Net
	infPred  []*nn.PredictScratch
	candTask func(w, j int)
	mc       *mcScratch

	// Fast-path inference state (fastpath.go): the frozen f32 weight
	// copy and its scratch (Inference32), the serial f64 batch scratch,
	// and the per-decision SLO overrun streak.
	frozen    *nn.Frozen32
	scr32     *nn.Scratch32
	pred      *nn.PredictScratch
	sloStreak int
	// forceRescore treats every candidate as dirty — test hook that
	// turns the fast path into its own uncached reference.
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
	scrCum   []float64

	// predMix is the persistent mixture scratch for the closed-form
	// next-arrival predictions (arrival.go; no RNG draws).
	predMix nn.Mixture

	// Model-lifecycle state (health.go): the health state machine,
	// the consecutive-guard-trip counter that drives it, lifecycle
	// metrics, and the checkpoint store.
	health    Health
	trips     int
	obs       *obs.RavenObs
	store     *ckpt.Store
	completed int // non-skipped, non-diverged trainings (checkpoint cadence)
	// windows counts the TrainRecords ever appended (skipped windows
	// included). The per-window shuffle seed and the fault-drill cut-off
	// read it, not len(TrainStats), so bounding that slice cannot change
	// what any window trains.
	windows int

	// TrainStats records every completed training run (Table 7 and the
	// overhead discussion of §6.1.1).
	TrainStats []TrainRecord

	// HealthLog records every health transition, oldest first.
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
	// Skipped marks windows whose retraining was elided by drift
	// detection (Config.DriftThreshold).
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
		cfg:  cfg,
		rng:  stats.NewRNG(cfg.Seed),
		tab:  newTable(),
		pool: nn.NewPool(cfg.Workers),
	}
	r.candTask = r.candidateTask
	r.mc = newMCScratch(r.pool)
	r.window = newWindow(cfg.SampleBudgetBytes, cfg.MaxTrainObjects, cfg.Train.MaxSeq, stats.NewRNG(cfg.Seed+3))
	if cfg.DriftThreshold > 0 {
		r.drift = newDriftDetector(cfg.DriftThreshold, 0)
	}
	r.obs = cfg.Obs
	if r.obs != nil {
		r.obs.Health.Set(int64(Healthy))
	}
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
	st, err := ckpt.Open(r.cfg.Checkpoint.Dir, ckpt.Options{Prefix: "raven"})
	if err != nil {
		r.ckptError(err)
		return
	}
	r.store = st
	net, info, err := st.LoadNewest()
	r.CkptResume = info
	if r.obs != nil && info.CorruptSkipped > 0 {
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
	}
}

// ckptError records a best-effort checkpoint failure.
func (r *Raven) ckptError(err error) {
	r.CkptErr = err
	if r.obs != nil {
		r.obs.CkptErrors.Inc()
	}
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
	if r.obs != nil {
		r.obs.CkptSaves.Inc()
	}
}

// Name implements cache.Policy.
func (r *Raven) Name() string {
	if r.cfg.Goal == GoalOHR {
		return "raven-ohr"
	}
	return "raven"
}

// MetadataBytesPerObject implements cache.Footprinter: what one cached
// object costs in the record table — its core record, side record,
// interarrival ring and embedding (§6.1.1). The index map's entry is
// not counted.
func (r *Raven) MetadataBytesPerObject() int64 {
	state := r.cfg.Net.Hidden
	if r.net != nil {
		state = r.net.Cfg.Hidden
	}
	return RecordBytes + int64(unsafe.Sizeof(resRec{})+unsafe.Sizeof(ring{})) + 8*int64(state)
}

// RecordBytes is what every known key costs in the record table,
// cached or not: the core record. From its second sighting a key also
// holds a ring (RingBytes).
const (
	RecordBytes = int64(unsafe.Sizeof(rec{}))
	RingBytes   = int64(unsafe.Sizeof(ring{}))
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
		r.start = req.Time
		r.window.reset(req.Time)
	}
	r.now = req.Time
	t := r.tab

	h := t.find(req.Key)
	fresh := h == 0
	if fresh {
		h = t.insert(req.Key, req.Time, req.Size)
		if r.obs != nil {
			r.obs.HistoryRecords.Add(1)
		}
		r.trim(h)
	}
	rc := t.recs.at(h)
	r.window.record(req, &rc.win)
	if !fresh {
		tau := float64(req.Time - rc.lastSeen)
		if tau < 1 {
			tau = 1
		}
		if r.drift != nil {
			r.drift.observe(tau)
		}
		if rc.ring == 0 {
			rc.ring = t.rings.alloc()
		}
		t.rings.at(rc.ring).push(tau)
		rc.lastSeen = req.Time
		rc.size = req.Size
		resident := false
		if rc.res != 0 {
			sd := t.sides.at(rc.res)
			resident = sd.pos >= 0
			sd.epoch++ // the history advanced: any cached score is now stale
			if r.net != nil && int(sd.embVer) == r.net.Version {
				r.net.StepEmbed(t.emb(rc.res), tau)
			} else if !resident {
				// A ghost kept for an embedding that a model swap has
				// since made stale.
				t.sides.release(rc.res)
				rc.res = 0
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
	if len(t.index) < ghostsPerResident*len(t.dense)+t.floor {
		return
	}
	horizon := r.now - 2*r.cfg.TrainWindow
	dropped := 0
	for {
		old := t.ghosts.back
		t.examined++
		if old == 0 || old == keep || (dropped > 0 && t.recs.at(old).lastSeen >= horizon) {
			break
		}
		t.drop(old)
		dropped++
	}
	if r.obs != nil {
		r.obs.HistoryRecords.Add(-int64(dropped))
		r.obs.HistoryDropped.Add(int64(dropped))
	}
}

// train fits the MDN on the just-finished window (§4.4), unless drift
// detection decides the previous model still matches the workload.
func (r *Raven) train() {
	data, terms := r.window.sequences(r.now)
	if len(data) == 0 {
		return
	}
	retrain := true
	if r.drift != nil {
		// Always close the drift window so consecutive windows are
		// compared pairwise, even before the first model exists.
		retrain = r.drift.shouldRetrain()
	}
	if r.net != nil && !retrain {
		r.record(TrainRecord{
			WindowEnd: r.now,
			Objects:   len(data),
			Samples:   terms,
			Skipped:   true,
		})
		return
	}
	// A network with non-finite weights (corrupt resume that slipped
	// validation, runtime overflow) cannot be trained out of NaN —
	// discard it and fit fresh. Counted as a rollback: the "last good
	// network" here is none.
	if r.net != nil && !r.net.FiniteWeights() {
		r.net = nil
		r.infNets = nil
		r.infPred = nil
		r.invalidateFastPath()
		if r.obs != nil {
			r.obs.Rollbacks.Inc()
		}
	}
	prev := r.net // last good network; the rollback target
	replaced := false
	if r.net == nil || r.cfg.ColdStart {
		cfg := r.cfg.Net
		if cfg.TimeScale == 0 { //lint:allow float-equal zero TimeScale means unset; derive the default
			cfg.TimeScale = meanTau(data, float64(r.cfg.TrainWindow)/1000)
		}
		r.net = nn.NewNet(cfg)
		if prev != nil {
			r.net.Version = prev.Version
		}
		// Inference shadows alias the old network's weights; rebuild
		// them lazily against the new one.
		r.infNets = nil
		r.infPred = nil
		r.invalidateFastPath()
		replaced = true
	}
	// Pre-fit snapshot: the rollback token for warm-start windows
	// (windows that built a fresh net roll back to prev instead).
	var snap [][]float64
	if !replaced {
		snap = r.net.WeightsCopy()
	}
	tc := r.cfg.Train
	tc.Seed += int64(r.windows) // vary shuffles between windows
	if tc.Faults != nil && r.cfg.TrainFaultWindows > 0 && r.windows >= r.cfg.TrainFaultWindows {
		tc.Faults = nil // fault drill over; train clean from here on
	}
	res := r.net.Fit(data, tc)
	if r.obs != nil {
		r.obs.TrainEpochs.Add(int64(res.Epochs))
		r.obs.TrainSequences.Add(int64(res.Sequences))
	}
	rec := TrainRecord{
		WindowEnd: r.now,
		Objects:   len(data),
		Samples:   terms,
		Result:    res,
	}
	if res.Diverged {
		// Fit already restored the fitted network's pre-fit weights
		// bit-identically; rolling back means re-installing the last
		// good network (which, for warm starts, is that same
		// snapshot).
		if replaced {
			r.net = prev
		} else {
			r.net.RestoreWeightsCopy(snap)
		}
		r.infNets = nil
		r.infPred = nil
		r.invalidateFastPath()
		rec.RolledBack = true
		if r.obs != nil {
			r.obs.Rollbacks.Inc()
		}
		r.guardTripped("training diverged: " + res.GuardReason)
	} else {
		r.trainSucceeded()
		r.saveCheckpoint()
		r.invalidateFastPath()
		if r.cfg.ScoreCache && r.cfg.Inference32 {
			// Quantize the freshly fitted weights now, off the decision
			// path, so the first post-swap eviction pays no freeze.
			r.frozen = r.net.Freeze32()
		}
	}
	r.record(rec)
}

// record appends one window's TrainRecord and counts it.
func (r *Raven) record(rec TrainRecord) {
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
	if r.tab.resident(r.tab.recs.at(h)) {
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
	if t.resident(t.recs.at(h)) {
		return
	}
	t.admit(h)
	if r.obs != nil {
		r.obs.HistoryResident.Add(1)
	}
}

// OnEvict implements cache.Policy. The object's record survives
// eviction; only residency state is dropped.
func (r *Raven) OnEvict(key cache.Key) {
	t := r.tab
	h := t.find(key)
	if h == 0 {
		return
	}
	rc := t.recs.at(h)
	if !t.resident(rc) {
		return
	}
	t.evict(h, r.net != nil && int(t.sides.at(rc.res).embVer) == r.net.Version)
	if r.obs != nil {
		r.obs.HistoryResident.Add(-1)
	}
}

// Victim implements cache.Policy: the §4.4 eviction rule. Before the
// first model is trained — and whenever the health state machine is
// in Fallback — it falls back to LRU over the resident list. With
// Config.ScoreCache on, the decision runs through the cached-score
// fast path (fastpath.go); with Config.DecisionBudget armed, a
// decision that overruns its deadline is abandoned to LRU and counted
// (health.go sloOverrun).
//
//lint:allow determinism-taint the DecisionBudget deadline is the SLO feature itself; the clock can only influence the decision when Config.DecisionBudget > 0, which deterministic-replay configurations leave at 0
func (r *Raven) Victim() (cache.Key, bool) {
	if len(r.tab.dense) == 0 {
		return 0, false
	}
	if r.net == nil || r.health == Fallback {
		return r.fallbackVictim(), true
	}
	if r.cfg.ScoreCache {
		return r.victimFast()
	}
	budget := r.cfg.DecisionBudget
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget) //lint:allow wall-clock the DecisionBudget deadline is the SLO feature; replay configurations leave the budget at 0
	}
	r.prepareCandidates()
	n := len(r.scrKeys)
	// Runtime sanity gate: a single non-finite mixture parameter
	// means the model's output can no longer be trusted to order
	// candidates — enter Fallback now and evict by LRU instead of
	// comparing NaNs.
	for j := 0; j < n; j++ {
		if !mixtureFinite(&r.scrMix[j]) {
			r.scoresInsane()
			return r.fallbackVictim(), true
		}
	}
	// Candidate-loop boundary: embed+predict is done, the estimator is
	// next. A decision already past its deadline abandons to LRU here
	// instead of paying the Monte Carlo pass.
	if r.overBudget(budget, deadline) {
		r.sloOverrun()
		return r.fallbackVictim(), true
	}
	if n == 1 {
		if budget > 0 {
			r.sloMet()
		}
		return r.choose(0), true
	}
	// Monte Carlo estimator (Eq. 1c): the win count is the score up to
	// the constant 1/M factor, which cannot change the argmax, so the
	// hot path skips the normalization (and any scores slice).
	wins := r.mc.winsMC(r.scrMix, r.cfg.ResidualSamples, r.rng)
	best := -1.0
	victim := 0
	for j := 0; j < n; j++ {
		score := float64(wins[j])
		if r.cfg.Goal == GoalOHR {
			score *= float64(r.scrSize[j])
		}
		if score > best {
			best = score
			victim = j
		}
	}
	if budget > 0 {
		r.sloMet()
	}
	return r.choose(victim), true
}

// choose returns candidate slot j's key as the decision, remembering its
// record so the OnEvict that follows needs no lookup.
func (r *Raven) choose(j int) cache.Key {
	t := r.tab
	t.vicKey, t.vicH = r.scrKeys[j], t.dense[r.scrIdx[j]]
	return t.vicKey
}

// candidateTask prepares candidate slot j: it refreshes the object's
// embedding if a model swap made it stale, predicts the residual-time
// mixture, and records the key and size. It runs on pool workers —
// each worker uses its own shadow network and prediction scratch, and
// the task writes only j-addressed slots (distinct sampled indices
// name distinct records, and prepareCandidates reserved every
// embedding slot, so the in-place embedding refresh is race-free).
// Results are bit-identical for any worker count because shadows alias
// the master's weights.
func (r *Raven) candidateTask(w, j int) {
	t := r.tab
	rc := t.recs.at(t.dense[r.scrIdx[j]])
	emb := r.embedding(r.infNets[w], rc)
	age := float64(r.now - rc.lastSeen)
	r.infNets[w].PredictWith(r.infPred[w], emb, float64(rc.size), age, &r.scrMix[j])
	r.scrKeys[j] = rc.key
	r.scrSize[j] = rc.size
}

// embedding returns rc's history embedding under the current model,
// recomputing it from the ring (through net, the current model or a
// shadow of it) when a model swap made it stale. rc gets a side record
// if it has none.
func (r *Raven) embedding(net *nn.Net, rc *rec) []float64 {
	t := r.tab
	sd := t.side(rc)
	if int(sd.embVer) == r.net.Version {
		return t.emb(rc.res)
	}
	t.setDim(r.net.Cfg.Hidden)
	emb := t.emb(rc.res)
	var taus []float64
	if rc.ring != 0 {
		taus = t.rings.at(rc.ring).taus()
	}
	net.EmbedHistoryInto(emb, taus)
	sd.embVer = int32(r.net.Version)
	return emb
}

// prepareCandidates samples eviction candidates and fans their
// embed+predict work out over the pool, one indexed slot per
// candidate.
func (r *Raven) prepareCandidates() {
	t := r.tab
	r.scrIdx = t.sampler.Sample(r.rng, len(t.dense), r.cfg.CandidateSample, r.scrIdx)
	n := len(r.scrIdx)
	if cap(r.scrMix) < n {
		r.scrMix = make([]nn.Mixture, n)
		r.scrKeys = make([]cache.Key, n)
		r.scrSize = make([]int64, n)
	}
	r.scrMix = r.scrMix[:n]
	r.scrKeys = r.scrKeys[:n]
	r.scrSize = r.scrSize[:n]
	if r.infNets == nil {
		w := r.pool.Workers()
		r.infNets = make([]*nn.Net, w)
		r.infPred = make([]*nn.PredictScratch, w)
		for k := range r.infNets {
			r.infNets[k] = r.net.Shadow()
			r.infPred[k] = r.net.NewPredictScratch()
		}
	}
	// The workers touch only their candidate's slots; anything that
	// grows shared table state happens here, serially.
	t.setDim(r.net.Cfg.Hidden)
	for _, i := range r.scrIdx {
		t.emb(t.recs.at(t.dense[i]).res)
	}
	r.pool.ParallelFor(n, r.candTask)
}

// fallbackVictim evicts the LRU-list tail, counting the eviction when
// it happened because of degraded health (rather than the normal
// before-first-model warmup).
func (r *Raven) fallbackVictim() cache.Key {
	if r.health == Fallback && r.obs != nil {
		r.obs.FallbackEvictions.Inc()
	}
	t := r.tab
	t.vicH = t.lru.back
	t.vicKey = t.recs.at(t.vicH).key
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

func cumWeights(w []float64, dst []float64) []float64 {
	dst = dst[:0]
	acc := 0.0
	for _, wi := range w {
		acc += wi
		dst = append(dst, acc)
	}
	return dst
}

// sampleLogResidual draws the LOG of a residual-time sample from the
// mixture. Since log is monotone, comparing log-samples across
// candidates gives the same argmax as comparing the samples
// themselves, and skipping the exp saves ~30% of eviction time.
func sampleLogResidual(m *nn.Mixture, cum []float64, g *stats.RNG) float64 {
	u := g.Float64()
	k := len(cum) - 1
	for i, c := range cum {
		if u <= c {
			k = i
			break
		}
	}
	return m.Mu[k] + m.S[k]*g.NormFloat64()
}
