package cache

import (
	"testing"

	"raven/internal/stats"
)

// BenchmarkHandleIndex times the key index alone at 400 000 keys, whose
// 32-byte records (the size of core's) fill 12.8 MB, past any L2, so a
// record read back through keyOf is a cache miss as it is in a server.
//
//	find-hit   Find of an indexed key, in random order; it also reports
//	           the index's Bytes per key
//	find-miss  Find of a key never indexed
//	churn      Delete of a random indexed key and Insert of a new one
//	           under its handle: the key count holds, so tombstones and
//	           rebuilds in place are in the figure and growth is not
func BenchmarkHandleIndex(b *testing.B) {
	const keys = 400_000
	type record struct {
		key Key
		_   [3]uint64
	}
	recs := make([]record, keys+1) // by handle; [0] is unused
	ix := NewHandleIndex(func(h uint32) Key { return recs[h].key })
	g := stats.NewRNG(1)
	for h := uint32(1); h <= keys; h++ {
		recs[h].key = Key(g.Int63())
		ix.Insert(recs[h].key, h)
	}
	var probes [1 << 16]uint32 // random handles, cycled
	for i := range probes {
		probes[i] = uint32(1 + g.Intn(keys))
	}
	b.Run("find-hit", func(b *testing.B) {
		b.ReportMetric(float64(ix.Bytes())/keys, "index-B/key")
		for i := 0; i < b.N; i++ {
			h := probes[i%len(probes)]
			if ix.Find(recs[h].key) != h {
				b.Fatal("an indexed key was not found")
			}
		}
	})
	b.Run("find-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Indexed keys are below 2^63.
			if ix.Find(recs[probes[i%len(probes)]].key|1<<63) != 0 {
				b.Fatal("a key never indexed was found")
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := probes[i%len(probes)]
			ix.Delete(recs[h].key, h)
			recs[h].key = Key(g.Int63())
			ix.Insert(recs[h].key, h)
		}
	})
}
