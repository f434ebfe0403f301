//go:build soak

package core_test

import (
	"runtime"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/stats"
)

// TestSoakPlateau is the policy-layer half of the plateau proof: ten
// million requests through a one-shard cache.Sharded serving
// policy.Served() with learned admission, from a source that draws each
// request as it goes and never holds a trace. A request is a Zipf draw
// over a catalogue of keys, or, three times in ten, a key never seen
// before; a key's size is a function of the key. Every checkEvery
// requests the record table is at most core.HistoryCeiling(residents), and
// raven.table_bytes and the live heap after a GC in the second half
// stay within 2% and 10% of the first half's maxima. Run it with
// `./scripts/verify.sh soak`.
func TestSoakPlateau(t *testing.T) {
	const (
		requests   = 10_000_000
		checkEvery = 100_000
		catalogue  = 500_000
		freshFrac  = 0.3
		meanSize   = 550 // sizes are 100–999 B
		residents  = 64_000
		window     = 100_000 // ravencached's -window default
	)
	ro := &obs.RavenObs{}
	o := policy.Served()
	o.TrainWindow, o.Obs = window, ro
	f, err := policy.Lookup("raven")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.NewSharded(residents*meanSize, 1, f.PerShard(o, 1))
	if err != nil {
		t.Fatal(err)
	}

	g := stats.NewRNG(7)
	zipf := stats.NewZipf(catalogue, 0.9)
	fresh := cache.Key(catalogue)
	var table, heap [2]int64 // maxima of the first and second half
	var ms runtime.MemStats
	for i := 1; i <= requests; i++ {
		key := cache.Key(zipf.Sample(g))
		if g.Float64() < freshFrac {
			key, fresh = fresh, fresh+1
		}
		c.Handle(cache.Request{Time: int64(i), Key: key, Size: 100 + int64(key*2654435761%900)})
		if i%checkEvery != 0 {
			continue
		}
		records, res := ro.HistoryRecords.Load(), ro.HistoryResident.Load()
		if ceiling := int64(core.HistoryCeiling(int(res))); records > ceiling {
			t.Fatalf("request %d: %d records for %d residents, ceiling %d", i, records, res, ceiling)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		half := 2 * i / (requests + 1)
		table[half] = max(table[half], ro.TableBytes.Load())
		heap[half] = max(heap[half], int64(ms.HeapAlloc))
		if i%(10*checkEvery) == 0 {
			t.Logf("request %d: %d records, %d residents, table %d B, live heap %d B, %d epochs trained",
				i, records, res, ro.TableBytes.Load(), ms.HeapAlloc, ro.TrainEpochs.Load())
		}
	}
	if float64(table[1]) > 1.02*float64(table[0]) {
		t.Errorf("raven.table_bytes grew to %d B in the second half, over 2%% above the first half's %d B", table[1], table[0])
	}
	if float64(heap[1]) > 1.10*float64(heap[0]) {
		t.Errorf("the live heap grew to %d B in the second half, over 10%% above the first half's %d B", heap[1], heap[0])
	}
	if ro.HistoryDropped.Load() == 0 {
		t.Errorf("the table never reached its ceiling: nothing was dropped")
	}
}
