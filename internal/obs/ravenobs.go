package obs

// RavenObs is the learning policy's model-lifecycle observability
// surface: rollbacks, health transitions, fallback activity, training
// cost, and checkpoint accounting. Raven updates it inline from its (single)
// policy goroutine; the atomic metric types keep concurrent METRICS
// snapshots safe. Raven always counts: pass one via core.Config.Obs
// (a Raven built without one counts into a private block) and register
// it on the server/sim registry so operators can watch a learned
// policy degrade and recover instead of silently going insane.
type RavenObs struct {
	// Rollbacks counts trainings abandoned by the guard (weights
	// restored to the pre-fit snapshot or the previous good network).
	Rollbacks Counter
	// GuardTrips counts individual guard trips, including those that
	// did not change the health state.
	GuardTrips Counter
	// FallbackEvictions counts evictions served from the LRU list once a
	// model exists, whatever the cause: the Fallback health state, an
	// insane mixture, or a DecisionBudget overrun. LRU evictions before
	// the first model are not counted.
	FallbackEvictions Counter
	// ModelEvictions counts evictions the model decided. With
	// FallbackEvictions it splits every eviction made once a model
	// exists; before the first model neither counts.
	ModelEvictions Counter
	// TrainEpochs and TrainSequences sum nn.TrainResult.Epochs and
	// .Sequences over every fit that ran, rolled back or not: the
	// training cost in units that need no clock.
	TrainEpochs    Counter
	TrainSequences Counter
	// TrainSkipped counts windows that closed while their shard's fit,
	// handed to a trainer, was unfinished: their data is dropped.
	TrainSkipped Counter

	// CkptSaves counts checkpoint generations written; CkptErrors
	// counts failed save/load attempts; CkptCorruptSkipped counts
	// corrupt generations skipped while resuming.
	CkptSaves          Counter
	CkptErrors         Counter
	CkptCorruptSkipped Counter

	// HealthTransitions counts health state changes; Health reports the
	// state.
	HealthTransitions Counter
	// unhealthy[s-1] counts the policies sharing this RavenObs that are
	// in health state s (1 degraded, 2 fallback).
	unhealthy [2]Gauge

	// SLOOverruns counts eviction decisions abandoned because they
	// exceeded core.Config.DecisionBudget (served from LRU instead).
	SLOOverruns Counter
	// ScoreCacheHits counts sampled eviction candidates whose cached
	// priority score was still valid; ScoreRescores counts candidates
	// that had to be re-embedded/re-predicted — every candidate under the
	// joint win count, which caches nothing. Their sum is the total
	// number of candidates Victim considered.
	ScoreCacheHits Counter
	ScoreRescores  Counter

	// HistoryRecords is how many keys the policy's record table holds
	// (resident or not), HistoryResident how many of them are cached,
	// and HistoryDropped counts records the table's bound has dropped —
	// the "is anything growing" triple. Summed over shards; written only
	// where a count changes (new key, drop, admit, evict), never per hit.
	HistoryRecords  Gauge
	HistoryResident Gauge
	HistoryDropped  Counter
	// TableBytes is what the record tables hold, summed over shards: their
	// record, ring, side and embedding slabs and index slots. It
	// moves only when one of those grows (or a change of model width
	// drops the embeddings), never per request at steady state.
	TableBytes Gauge
}

// HealthMoved records one policy's health transition from state from
// to state to (0 healthy, 1 degraded, 2 fallback).
func (ro *RavenObs) HealthMoved(from, to int64) {
	if from > 0 {
		ro.unhealthy[from-1].Add(-1)
	}
	if to > 0 {
		ro.unhealthy[to-1].Add(1)
	}
	ro.HealthTransitions.Inc()
}

// Health is the worst health state of the policies sharing ro: 2 when
// any is in fallback, else 1 when any is degraded, else 0. One
// ravencached process hands the same RavenObs to every shard, so a
// single shard in fallback shows.
func (ro *RavenObs) Health() int64 {
	for s := len(ro.unhealthy); s > 0; s-- {
		if ro.unhealthy[s-1].Load() > 0 {
			return int64(s)
		}
	}
	return 0
}

// Register adds every RavenObs metric to r under prefix (e.g.
// "raven"), in a fixed order so snapshots stay deterministic.
func (ro *RavenObs) Register(r *Registry, prefix string) {
	r.adoptCounter(prefix+".rollbacks", &ro.Rollbacks)
	r.adoptCounter(prefix+".guard_trips", &ro.GuardTrips)
	r.adoptCounter(prefix+".fallback_evictions", &ro.FallbackEvictions)
	r.adoptCounter(prefix+".model_evictions", &ro.ModelEvictions)
	r.adoptCounter(prefix+".ckpt_saves", &ro.CkptSaves)
	r.adoptCounter(prefix+".ckpt_errors", &ro.CkptErrors)
	r.adoptCounter(prefix+".ckpt_corrupt_skipped", &ro.CkptCorruptSkipped)
	r.RegisterFunc(prefix+".health", ro.Health)
	r.adoptCounter(prefix+".health_transitions", &ro.HealthTransitions)
	r.adoptCounter(prefix+".slo_overruns", &ro.SLOOverruns)
	r.adoptCounter(prefix+".score_cache_hits", &ro.ScoreCacheHits)
	r.adoptCounter(prefix+".score_rescores", &ro.ScoreRescores)
	r.adoptCounter(prefix+".train_epochs", &ro.TrainEpochs)
	r.adoptCounter(prefix+".train_sequences", &ro.TrainSequences)
	r.adoptCounter(prefix+".train_skipped", &ro.TrainSkipped)
	r.adoptGauge(prefix+".history_records", &ro.HistoryRecords)
	r.adoptGauge(prefix+".history_resident", &ro.HistoryResident)
	r.adoptCounter(prefix+".history_dropped", &ro.HistoryDropped)
	r.adoptGauge(prefix+".table_bytes", &ro.TableBytes)
}
