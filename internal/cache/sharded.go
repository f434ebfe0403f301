package cache

import (
	"fmt"
	"slices"

	"raven/internal/obs"
	"raven/internal/trace"
)

// ShardFactory builds the policy instance for one shard. shard is the
// shard index and capacity the shard's byte capacity (the total split
// evenly, remainder spread over the low shards). Factories must return
// fully independent instances: shard policies run under different
// locks, so any state shared between two instances is a data race.
// policy.Factory.PerShard adapts a registered policy constructor to
// this type, deriving per-shard seeds deterministically.
type ShardFactory func(shard int, capacity int64) (Policy, error)

// SingleFactory adapts one pre-built policy instance to a
// ShardFactory. It is only valid for a 1-shard engine: a second call
// would hand the same instance to a second lock domain, so it errors.
func SingleFactory(p Policy) ShardFactory {
	used := false
	return func(shard int, capacity int64) (Policy, error) {
		if used {
			return nil, fmt.Errorf("cache: SingleFactory reused for shard %d; a shared policy instance across shards is a data race", shard)
		}
		used = true
		return p, nil
	}
}

// Sharded is the cache engine: N independent shards, memcached style
// (N = 1 is an unpartitioned cache). Each shard owns its own Policy
// instance, byte capacity, lock, and Stats; a deterministic FNV-1a hash
// of the key (masked to the power-of-two shard count) selects the
// shard, so requests for different shards proceed in parallel while
// each policy still sees a strictly serialized request stream —
// Raven's deterministic eviction path is preserved unchanged inside
// every shard.
//
// Sharded is safe for concurrent use.
type Sharded struct {
	capacity int64
	mask     uint64
	shards   []shard
}

// New creates a one-shard cache of the given byte capacity driven by
// policy. It panics if capacity is not positive or policy is nil.
func New(capacity int64, policy Policy) *Sharded {
	s, err := NewSharded(capacity, 1, SingleFactory(policy))
	if err != nil {
		panic(err)
	}
	return s
}

// NewSharded creates a sharded cache of the given total byte capacity.
// shards is rounded up to the next power of two (the key hash is
// masked, not reduced modulo); each shard receives capacity/N bytes
// with the remainder spread one byte each over the low shards.
// newPolicy is called once per shard, in shard order, with the shard's
// index and capacity.
func NewSharded(capacity int64, shards int, newPolicy ShardFactory) (*Sharded, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: sharded capacity must be positive, got %d", capacity)
	}
	if shards < 1 {
		return nil, fmt.Errorf("cache: shard count must be >= 1, got %d", shards)
	}
	if newPolicy == nil {
		return nil, fmt.Errorf("cache: nil shard policy factory")
	}
	n := nextPow2(shards)
	if int64(n) > capacity {
		return nil, fmt.Errorf("cache: %d shards cannot split %d bytes (less than one byte per shard)", n, capacity)
	}
	s := &Sharded{
		capacity: capacity,
		mask:     uint64(n - 1),
		shards:   make([]shard, n),
	}
	base, rem := capacity/int64(n), capacity%int64(n)
	for i := range s.shards {
		shardCap := base
		if int64(i) < rem {
			shardCap++
		}
		p, err := newPolicy(i, shardCap)
		if err != nil {
			return nil, fmt.Errorf("cache: building policy for shard %d: %w", i, err)
		}
		if p == nil {
			return nil, fmt.Errorf("cache: shard %d factory returned a nil policy", i)
		}
		s.shards[i].init(shardCap, p)
	}
	return s, nil
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FNV-1a constants (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ShardIndex returns the shard the key maps to: FNV-1a over the key's
// eight little-endian bytes, masked to the shard count. Exported so
// tests and tools can pre-partition key spaces deterministically.
func (s *Sharded) ShardIndex(key Key) int {
	h := uint64(fnvOffset)
	k := uint64(key)
	for i := 0; i < 8; i++ {
		h ^= k >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return int(h & s.mask)
}

func (s *Sharded) shardFor(key Key) *shard { return &s.shards[s.ShardIndex(key)] }

// Shards returns the shard count (always a power of two).
func (s *Sharded) Shards() int { return len(s.shards) }

// Capacity returns the configured total capacity in bytes.
func (s *Sharded) Capacity() int64 { return s.capacity }

// ShardCapacity returns shard i's byte capacity.
func (s *Sharded) ShardCapacity(i int) int64 { return s.shards[i].capacity }

// Handle processes one lookup on the key's shard and reports whether
// it hit. On a miss the object is admitted (evicting as needed) unless
// it exceeds the shard's capacity or the policy's admission control
// refuses it. Only that shard's lock is held, so requests mapping to
// different shards proceed in parallel.
func (s *Sharded) Handle(req Request) bool {
	sh := s.shardFor(req.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.handle(req)
}

// Set stores req on the key's shard (memcached-style SET) and reports
// whether the object is resident afterwards. A same-size store
// refreshes the entry through OnHit; anything else runs the miss-fill
// sequence, after evicting a stale entry of another size. It counts
// into Stats.Sets, not Requests/Hits, which measure lookups.
func (s *Sharded) Set(req Request) bool {
	sh := s.shardFor(req.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.set(req)
}

// Op is one operation of a batch: a lookup as Handle serves it, or a
// store as Set serves it when Set is true. Time is its timestamp on the
// policy clock.
type Op struct {
	Set  bool
	Key  Key
	Size int64
	Time int64
}

// ServeBatch serves ops in order and stores each op's outcome in res,
// which has len(ops): hit for a lookup, resident afterwards for a
// store. Each run of consecutive ops on one shard is served under one
// hold of that shard's lock, so a one-shard engine takes its lock once
// per batch. Every policy sees the request stream Handle and Set would
// give it op by op. ServeBatch does not allocate.
func (s *Sharded) ServeBatch(ops []Op, res []bool) {
	for i := 0; i < len(ops); {
		k := s.ShardIndex(ops[i].Key)
		j := i + 1
		for j < len(ops) && s.ShardIndex(ops[j].Key) == k {
			j++
		}
		s.shards[k].serveRun(ops[i:j], res[i:j])
		i = j
	}
}

// serveRun serves ops, all of this shard, under one hold of its lock.
// The unlock is deferred, so a panicking policy cannot leave the shard
// locked.
func (c *shard) serveRun(ops []Op, res []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		req := Request{Time: op.Time, Key: op.Key, Size: op.Size, Next: trace.NoNext}
		if op.Set {
			res[i] = c.set(req)
		} else {
			res[i] = c.handle(req)
		}
	}
}

// Contains reports whether key is cached on its shard.
func (s *Sharded) Contains(key Key) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.index.Find(key) != 0
}

// StatsSnapshot merges per-shard statistics into one total. Each
// shard's snapshot is taken under its lock, so every addend is
// internally consistent; the total is race-free by construction but
// not an atomic cut across shards under concurrent load.
func (s *Sharded) StatsSnapshot() Stats {
	var total Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total.Add(sh.stats)
		sh.mu.Unlock()
	}
	return total
}

// ShardStats returns shard i's statistics snapshot.
func (s *Sharded) ShardStats(i int) Stats {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// ResetStats zeroes every shard's statistics without touching cache
// contents or policy state. The simulator uses it to exclude warmup
// periods, as the paper does for its synthetic experiments (Appendix
// C.1).
func (s *Sharded) ResetStats() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Used returns the bytes currently cached across all shards.
func (s *Sharded) Used() int64 {
	var used int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		used += sh.used
		sh.mu.Unlock()
	}
	return used
}

// Len returns the number of cached objects across all shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.index.Len()
		sh.mu.Unlock()
	}
	return n
}

// Keys appends all cached keys across shards to dst in ascending order
// and returns it. Sorting keeps consumers deterministic: slab order
// depends on the order of admissions and evictions.
func (s *Sharded) Keys(dst []Key) []Key {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		dst = sh.keys(dst)
		sh.mu.Unlock()
	}
	slices.Sort(dst)
	return dst
}

// SetEvictionObserver registers fn, invoked with every victim just
// before it is removed (while it is still resident); nil disables it.
// resident appends the evicting shard's cached keys to dst in ascending
// order — the set the policy chose the victim from, which is how the
// simulator ranks a victim against the Belady oracle.
//
// fn runs inside the eviction path with the evicting shard's lock
// held: it must not call the engine's own methods (that self-deadlocks)
// and must not keep resident past its return. Under concurrent load fn
// may be called from several goroutines, one per shard.
func (s *Sharded) SetEvictionObserver(fn func(victim Key, resident func(dst []Key) []Key)) {
	for i := range s.shards {
		sh := &s.shards[i]
		var observer func(Key)
		if fn != nil {
			resident := sh.sortedKeys
			observer = func(victim Key) { fn(victim, resident) }
		}
		sh.mu.Lock()
		sh.observer = observer
		sh.mu.Unlock()
	}
}

// SetShardObs attaches live metrics to shard i (occupancy gauges and
// request/eviction counters, updated inline on every request); nil
// detaches. obs.ShardedCacheObs bundles one CacheObs per shard plus
// merged totals.
func (s *Sharded) SetShardObs(i int, m *obs.CacheObs) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.setObs(m)
}

// ShardPolicy returns shard i's policy instance. Callers must not
// invoke it concurrently with cache operations: the policy itself is
// only serialized by the shard lock.
func (s *Sharded) ShardPolicy(i int) Policy {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.policy
}
