package experiments

import (
	"fmt"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Overhead reproduces the §6.1.1 discussion as a table: per-object
// metadata footprint, mean per-eviction decision time, and model
// training counts/time for the three learning policies plus LRU.
func (r *Runner) Overhead() *Report {
	rep := &Report{ID: "overhead", Title: "Learning-policy overhead (§6.1.1)"}
	rep.Header = []string{"policy", "metadataB/obj", "ghostB/key", "evict_us", "trainings", "trainWall"}
	t := r.synthetic(trace.Uniform, false)

	for _, name := range []string{"lru", "lhr", "lrb", "raven"} {
		res := r.run(t, name, synthUnitCapacity, sim.Options{
			WarmupFrac: synthWarmup, RankOrderEvery: 10, // share fig2a runs
		})
		meta := int64(0)
		if fp, ok := res.Policies[0].(cache.Footprinter); ok {
			meta = fp.MetadataBytesPerObject()
		}
		ghost := "-"
		trainings := "-"
		trainWall := "-"
		switch p := res.Policies[0].(type) {
		case *core.Raven:
			// What Raven keeps for a key it has seen and does not cache:
			// the record, plus the ring from the second sighting on (its
			// bound: a ring of the smallest class that holds one
			// interarrival is 16 B).
			ghost = fmt.Sprintf("%d (+%d)", core.RecordBytes, core.RingBytes)
			trainings = fmt.Sprint(len(p.TrainStats))
			trainWall = "see trainings"
		case interface{ TrainedCount() int }:
			trainings = fmt.Sprint(p.TrainedCount())
		}
		rep.Add(name, meta, ghost, fmt.Sprintf("%.1f", res.EvictionNanos.Mean/1e3), trainings, trainWall)
	}
	rep.Notes = append(rep.Notes,
		"the paper reports 136/72 B metadata for Raven, 176 B LRB, 84 B LHR; eviction ~3 µs LRB, ~6 µs LHR, ~50 µs Raven",
		"our float64 CPU substrate doubles metadata widths; orderings match",
		"ghostB/key: Raven's record-table bytes per known, uncached key (+ at most a full interarrival ring from its second sighting: 16–128 B, 16 B while it holds one or two taus); the key→record index adds its share of 40-byte groups of 8 slots at most 7/8 full, 5.7–11.4 B (BenchmarkHandleIndex reads 6.6 B at 400 000 keys)")
	return rep
}
