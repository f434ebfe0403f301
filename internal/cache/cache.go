// Package cache provides the cache engine shared by every eviction
// policy in this repository: size accounting, the eviction loop,
// admission hooks, hit/byte statistics, and the sampled-candidate
// infrastructure used by sampling-based policies (LHD, Hyperbolic,
// LRB, LHR, Raven).
//
// The engine owns which objects are resident and how many bytes are
// used; policies own their metadata and answer the single question
// "which object should be evicted next?".
package cache

import (
	"fmt"
	"slices"
	"sync"

	"raven/internal/obs"
	"raven/internal/trace"
)

// Key aliases trace.Key so policy packages need not import both.
type Key = trace.Key

// Request aliases trace.Request.
type Request = trace.Request

// Policy decides evictions. The engine calls exactly one of OnHit or
// OnMiss per request, then OnAdmit — for that request's key only — if
// the missed object is inserted, and OnEvict for every object removed.
// Victim must return a currently cached key; it is called repeatedly
// until the new object fits.
//
// Policies are not safe for concurrent use; the engine serializes all
// calls.
type Policy interface {
	// Name returns the policy's short display name (e.g. "lru").
	Name() string
	// OnHit observes a request for a cached object.
	OnHit(req Request)
	// OnMiss observes a request for an uncached object, before any
	// admission or eviction happens.
	OnMiss(req Request)
	// OnAdmit observes the insertion of a previously missed object.
	OnAdmit(req Request)
	// OnEvict observes the removal of a cached object and must drop
	// the policy's metadata for it.
	OnEvict(key Key)
	// Victim returns the next object to evict. ok is false when the
	// policy tracks nothing evictable (the engine then refuses the
	// admission instead of looping forever).
	Victim() (key Key, ok bool)
}

// Prefetcher is a leftover declaration, pinned because
// benchmark/traced.go compiles against it. The engine never consults
// it: admit is the only way into the cache, and nothing outside
// benchmark/ may implement it.
type Prefetcher interface {
	NextPrefetch(now int64) (req Request, ok bool)
}

// Footprinter is an optional Policy extension reporting the per-object
// metadata footprint in bytes (the §6.1.1 memory-overhead comparison:
// the paper reports 136/72 B for Raven, 176 B for LRB, 84 B for LHR).
type Footprinter interface {
	MetadataBytesPerObject() int64
}

// Flusher is a leftover declaration, pinned because
// benchmark/traced.go forwards it. No policy implements it and nothing
// outside benchmark/ calls Flush.
type Flusher interface {
	Flush()
}

// Stats is a snapshot of a shard's counters, the hit-ratio statistics
// the paper reports. A shard counts into an obs.CacheObs, the block
// METRICS serves, and Stats is read from it.
type Stats struct {
	Requests  int64
	Hits      int64
	ReqBytes  int64
	HitBytes  int64
	Evictions int64
	// OneHitWonders counts evicted objects that were never hit between
	// admission and eviction (Table 8).
	OneHitWonders int64
	// Admissions counts objects inserted after a miss.
	Admissions int64
	// Rejections counts misses refused by admission control or size.
	Rejections int64
	// Sets counts explicit store operations (the server's SET command);
	// they do not contribute to Requests/Hits, which measure lookups.
	Sets int64
}

// statsOf reads m's counters.
func statsOf(m *obs.CacheObs) Stats {
	return Stats{
		Requests:      m.Requests.Load(),
		Hits:          m.Hits.Load(),
		ReqBytes:      m.ReqBytes.Load(),
		HitBytes:      m.HitBytes.Load(),
		Evictions:     m.Evictions.Load(),
		OneHitWonders: m.OneHitWonders.Load(),
		Admissions:    m.Admissions.Load(),
		Rejections:    m.Rejections.Load(),
		Sets:          m.Sets.Load(),
	}
}

// Add accumulates o into s field by field. The sharded engine merges
// per-shard snapshots with it, so totals are computed from consistent
// copies rather than racing on live counters.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Hits += o.Hits
	s.ReqBytes += o.ReqBytes
	s.HitBytes += o.HitBytes
	s.Evictions += o.Evictions
	s.OneHitWonders += o.OneHitWonders
	s.Admissions += o.Admissions
	s.Rejections += o.Rejections
	s.Sets += o.Sets
}

// Misses returns the lookups that did not hit.
func (s Stats) Misses() int64 { return s.Requests - s.Hits }

// OHR returns the object hit ratio.
func (s Stats) OHR() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// BHR returns the byte hit ratio.
func (s Stats) BHR() float64 {
	if s.ReqBytes == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(s.ReqBytes)
}

// MissBytes returns the bytes fetched from the origin/backend.
func (s Stats) MissBytes() int64 { return s.ReqBytes - s.HitBytes }

// entry is a cached object as the engine sees it, in a Slab; the shard's
// index resolves a key to its handle.
type entry struct {
	key  Key
	size int64
	live bool // false in a released slot, which keys skips
	hit  bool // hit since admission; an object evicted unhit is a one-hit wonder
}

// shard is one independent cache partition: a Policy coupled with
// capacity accounting and counters, under its own lock. Its methods
// are unsynchronised; Sharded takes mu around every call.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  Slab[entry]
	index    *HandleIndex
	policy   Policy
	observer func(victim Key)
	// obs is what the shard counts into: its Stats and its METRICS rows.
	obs *obs.CacheObs
}

func (c *shard) init(capacity int64, policy Policy) {
	c.capacity = capacity
	c.index = NewHandleIndex(func(h uint32) Key { return c.entries.At(h).key })
	c.policy = policy
	c.setObs(nil)
}

// setObs makes the shard count into m from now on (a fresh block when
// m is nil): requests, bytes, evictions, admissions and rejects, the
// occupancy gauges, seeded now, and the admission front's size. The
// updates are a few atomic ops and never allocate.
func (c *shard) setObs(m *obs.CacheObs) {
	if m == nil {
		m = new(obs.CacheObs)
	}
	c.obs = m
	m.UsedBytes.Set(c.used)
	m.Objects.Set(int64(c.index.Len()))
	for p := c.policy; p != nil; p = unwrapOnce(p) {
		if f, ok := p.(*fronted); ok {
			f.freq.setGauge(&m.AdmitBytes)
			break
		}
	}
}

// sortedKeys appends the shard's cached keys to dst and sorts all of
// dst in ascending order.
func (c *shard) sortedKeys(dst []Key) []Key {
	for h := uint32(1); h <= c.entries.Top(); h++ {
		if e := c.entries.At(h); e.live {
			dst = append(dst, e.key)
		}
	}
	slices.Sort(dst)
	return dst
}

// handle processes one request and reports whether it hit. On a miss
// the object is admitted (evicting as needed) unless it exceeds the
// capacity or the policy's admission control refuses it.
func (c *shard) handle(req Request) bool {
	c.obs.Requests.Inc()
	c.obs.ReqBytes.Add(req.Size)
	if h := c.index.Find(req.Key); h != 0 {
		c.obs.Hits.Inc()
		c.obs.HitBytes.Add(req.Size)
		c.entries.At(h).hit = true
		c.policy.OnHit(req)
		return true
	}
	c.policy.OnMiss(req)
	c.admit(req)
	return false
}

// admit runs the post-OnMiss admission sequence shared by handle and
// set: capacity and admission-control checks, the eviction loop,
// insertion, and accounting. It reports whether req was inserted.
func (c *shard) admit(req Request) bool {
	if req.Size > c.capacity {
		c.reject(RejectTooLarge)
		return false
	}
	if d := PolicyAdmit(c.policy, req); !d.Admit {
		c.reject(d.Reason)
		return false
	}
	for c.used+req.Size > c.capacity {
		victim, ok := c.policy.Victim()
		if !ok {
			c.reject(RejectNoVictim)
			return false
		}
		c.evict(victim)
	}
	h, _ := c.entries.Alloc()
	*c.entries.At(h) = entry{key: req.Key, size: req.Size, live: true}
	c.index.Insert(req.Key, h)
	c.used += req.Size
	c.policy.OnAdmit(req)
	c.obs.Admissions.Inc()
	c.obs.UsedBytes.Set(c.used)
	c.obs.Objects.Set(int64(c.index.Len()))
	return true
}

// set stores req.Key with req.Size (memcached-style SET). An existing
// entry of the same size is refreshed through OnHit; a size change
// evicts the stale entry first so policy metadata never
// desynchronizes; a new entry runs the same OnMiss → admission →
// eviction-loop → OnAdmit sequence as a miss-fill, so policies observe
// a well-formed request stream. set reports whether the object is
// resident afterwards. It counts into Stats.Sets, not Requests/Hits,
// which measure lookups.
func (c *shard) set(req Request) bool {
	c.obs.Sets.Inc()
	if h := c.index.Find(req.Key); h != 0 {
		if c.entries.At(h).size == req.Size {
			c.policy.OnHit(req)
			return true
		}
		c.evict(req.Key)
	}
	c.policy.OnMiss(req)
	return c.admit(req)
}

// reject counts a refused admission under the given reason, one of
// the Reject* constants.
func (c *shard) reject(reason obs.Reason) { c.obs.AdmitReject(reason) }

func (c *shard) evict(key Key) {
	h := c.index.Find(key)
	if h == 0 {
		panic(fmt.Sprintf("cache: policy %q returned non-resident victim %d", c.policy.Name(), key))
	}
	if c.observer != nil {
		c.observer(key)
	}
	e := c.entries.At(h)
	c.used -= e.size
	c.obs.Evictions.Inc()
	if !e.hit {
		c.obs.OneHitWonders.Inc()
	}
	c.index.Delete(key, h)
	c.entries.Release(h)
	c.obs.UsedBytes.Set(c.used)
	c.obs.Objects.Set(int64(c.index.Len()))
	c.policy.OnEvict(key)
}
