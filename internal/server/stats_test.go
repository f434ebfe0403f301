package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/stats"
	"raven/internal/trace"
)

// statFields names each cache.Stats field by its METRICS suffix.
var statFields = []struct {
	name string
	get  func(cache.Stats) int64
}{
	{"requests", func(s cache.Stats) int64 { return s.Requests }},
	{"hits", func(s cache.Stats) int64 { return s.Hits }},
	{"req_bytes", func(s cache.Stats) int64 { return s.ReqBytes }},
	{"hit_bytes", func(s cache.Stats) int64 { return s.HitBytes }},
	{"evictions", func(s cache.Stats) int64 { return s.Evictions }},
	{"one_hit_wonders", func(s cache.Stats) int64 { return s.OneHitWonders }},
	{"admissions", func(s cache.Stats) int64 { return s.Admissions }},
	{"rejections", func(s cache.Stats) int64 { return s.Rejections }},
	{"sets", func(s cache.Stats) int64 { return s.Sets }},
}

// TestStatsAreTheMetrics: a shard's cache.Stats are the counters
// METRICS serves. Random GETs and SETs — too-large objects, doorkeeper
// rejects and evictions among them — run from several clients through
// a 4-shard engine while a reader takes METRICS snapshots; afterwards
// the cache.* and cache.shard<i>.* rows equal StatsSnapshot and
// ShardStats field for field, and STATS over the wire reports the same
// counters.
func TestStatsAreTheMetrics(t *testing.T) {
	const (
		capacity = 64 << 10
		shards   = 4
		clients  = 4
		ops      = 1500
	)
	f, err := policy.Lookup("lru")
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, capacity, func(c *Config) {
		c.Shards = shards
		c.NewPolicy = f.PerShard(policy.Options{
			Capacity:  capacity,
			Admission: policy.AdmissionOptions{Mode: policy.AdmitDoorkeeper},
		}, shards)
	})
	eng := srv.backend.(engineBackend).eng

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := FetchMetrics(srv.Addr()); err != nil {
					t.Errorf("METRICS under traffic: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			g := stats.NewRNG(int64(c + 1))
			for range ops {
				k := trace.Key(g.Intn(600))
				size := 64 + int64(k%16)*64
				if g.Intn(50) == 0 {
					size = capacity // larger than any shard
				}
				do := cl.Get
				if g.Intn(4) == 0 {
					do = cl.Set
				}
				if _, err := do(k, size, -1); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.StatsSnapshot()
	for _, name := range []string{"admit_rejects.too_large", "admit_rejects.doorkeeper"} {
		if m["cache."+name] == 0 {
			t.Errorf("degenerate traffic: cache.%s is 0", name)
		}
	}
	for _, fl := range statFields {
		if fl.get(st) == 0 {
			t.Errorf("degenerate traffic: %s is 0 in %+v", fl.name, st)
		}
		if got, want := m["cache."+fl.name], fl.get(st); got != want {
			t.Errorf("cache.%s = %d, StatsSnapshot %d", fl.name, got, want)
		}
		for i := range shards {
			name := fmt.Sprintf("cache.shard%d.%s", i, fl.name)
			if got, want := m[name], fl.get(eng.ShardStats(i)); got != want {
				t.Errorf("%s = %d, ShardStats %d", name, got, want)
			}
		}
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "STATS\nQUIT\n"); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("STATS %d %d %d %d", m["cache.requests"], m["cache.hits"], m["cache.req_bytes"], m["cache.hit_bytes"])
	if got := strings.TrimSpace(line); got != want {
		t.Errorf("STATS replied %q, METRICS gives %q", got, want)
	}
}

// TestRuntimeMemoryMetrics: METRICS carries the runtime's heap
// figures, on a server with an engine (ravencached) and on one with a
// Backend (ravenrouter); between two snapshots with traffic and a
// collection in between, the cumulative ones never decrease and the
// cycle count moves.
func TestRuntimeMemoryMetrics(t *testing.T) {
	engine := newTestServer(t, 1<<20)
	routed, err := New(Config{Backend: &recordingBatch{}, DrainTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = routed.Close() })
	names := []string{"runtime.heap_allocs_bytes", "runtime.heap_live_bytes", "runtime.gc_cycles"}
	for _, srv := range []*Server{engine, routed} {
		fetch := func() map[string]int64 {
			t.Helper()
			m, err := FetchMetrics(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if _, ok := m[name]; !ok {
					t.Fatalf("METRICS has no %s", name)
				}
			}
			return m
		}
		before := fetch()
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for k := trace.Key(0); k < 100; k++ {
			if _, err := c.Set(k, 100, -1); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		runtime.GC()
		after := fetch()
		if before["runtime.heap_allocs_bytes"] <= 0 || after["runtime.heap_live_bytes"] <= 0 {
			t.Errorf("runtime heap figures read zero: %v then %v", before, after)
		}
		for _, name := range []string{"runtime.heap_allocs_bytes", "runtime.gc_cycles"} {
			if after[name] < before[name] {
				t.Errorf("%s went down: %d then %d", name, before[name], after[name])
			}
		}
		if after["runtime.gc_cycles"] == before["runtime.gc_cycles"] {
			t.Errorf("runtime.gc_cycles stayed at %d across a forced collection", after["runtime.gc_cycles"])
		}
	}
}
