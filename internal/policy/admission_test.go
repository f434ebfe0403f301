package policy

import (
	"runtime"
	"testing"

	"raven/internal/cache"
)

// TestDoorkeeperWindowCoversResidents: a doorkeeper-fronted LRU over a
// byte capacity (1 MiB, about 10 000 objects of 100 B) remembers a first
// sighting across 8 x residents distinct intervening misses, half the
// TinyLFU window of 16 x residents the front sizes itself for. Probes
// follow one another, each span of misses starting where the previous
// ended, so a doorkeeper reset falls in at most every other span. A
// front sized for 4096 objects (a 65 536-key window) resets inside every
// span and refuses every probe.
func TestDoorkeeperWindowCoversResidents(t *testing.T) {
	const capacity, size = 1 << 20, 100
	c := cache.New(capacity, MustNew("lru", Options{
		Capacity:  capacity,
		Admission: AdmissionOptions{Mode: AdmitDoorkeeper},
	}))
	now := int64(0)
	handle := func(k cache.Key) bool {
		now++
		c.Handle(cache.Request{Time: now, Key: k, Size: size})
		return c.Contains(k)
	}
	// Warm up: every key twice in a row, so each is admitted on its
	// second sighting; the cache fills and turns over several times.
	for k := cache.Key(1); k <= 40000; k++ {
		handle(k)
		handle(k)
	}
	residents := c.Len()
	if residents < 9000 || residents > 11000 {
		t.Fatalf("warm cache holds %d objects, want about 10 000", residents)
	}

	const probes = 4
	miss, probe := cache.Key(1<<40), cache.Key(1<<50)
	admitted := 0
	for p := 0; p <= probes; p++ {
		if p > 0 && handle(probe) { // the previous probe's second sighting
			admitted++
		}
		if p == probes {
			break
		}
		// A doorkeeper false positive admits a first sighting; such a
		// key proves nothing about the window, so take the next.
		for probe++; handle(probe); probe++ {
		}
		for range 8 * residents {
			miss++
			handle(miss)
		}
	}
	t.Logf("%d of %d probes admitted after %d distinct misses each", admitted, probes, 8*residents)
	if admitted < probes/2 {
		t.Errorf("%d of %d probes admitted on their second sighting after %d distinct misses; want >= %d",
			admitted, probes, 8*residents, probes/2)
	}
}

// TestLearnedFrontConstructionAlloc: building Raven with the learned
// admission front over a routed node's capacity (391 978 B, about 1 200
// objects) allocates under 256 KiB. A front sized by that byte count
// read as an object count took about 16.8 MB; sized by residents it
// starts at its 64-entry floor.
func TestLearnedFrontConstructionAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := New("raven", Options{
		Capacity:  391_978,
		Admission: AdmissionOptions{Mode: AdmitLearned},
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("building raven with learned admission allocated %d B, want < %d", got, 256<<10)
	}
}
