package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
	"raven/internal/trace"
)

// White-box accessors: tests name an object by key, the table by handle.

// lruTail returns the key the LRU fallback would evict next.
func (r *Raven) lruTail() cache.Key { return r.tab.recs.At(r.tab.lru.back).key }

// sideOf returns key's side record (nil when it has none).
func (r *Raven) sideOf(key cache.Key) *resRec {
	h := r.tab.index.Find(key)
	if h == 0 || r.tab.recs.At(h).res == 0 {
		return nil
	}
	return r.tab.sides.At(r.tab.recs.At(h).res)
}

// refObj is the naive reference's per-key state: the parent commit's
// objHist, a heap object behind a plain map, kept for every key until
// the bound drops it.
type refObj struct {
	lastSeen, size int64
	hist           []float64
	emb            []float64
	embVer         int // -1 = never embedded
	epoch, scoreEp int64
	scoreVer       int // -1 = never scored
	resident       bool
	aged           int64 // when it last joined or moved up the age queue
}

// refStore is the naive model of the record table: plain maps and
// slices, every operation written the obvious way, the bound enforced
// by scanning for the oldest ghost.
type refStore struct {
	objs  map[cache.Key]*refObj
	lru   []cache.Key // front first
	dense []cache.Key
	clock int64
	floor int
	// shifts counts pushes into a full history, which drop its oldest tau.
	shifts int
	// draining is table.draining; drains counts the new keys that left
	// the table draining.
	draining bool
	drains   int
}

func (s *refStore) tick() int64 { s.clock++; return s.clock }

// ghosts returns the non-resident keys, youngest first.
func (s *refStore) ghosts() []cache.Key {
	var ks []cache.Key
	for k, o := range s.objs {
		if !o.resident {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return s.objs[ks[i]].aged > s.objs[ks[j]].aged })
	return ks
}

// observe is the parent's Raven.observe, minus the window and training.
// net and ver are the model as it stood before the request.
func (s *refStore) observe(req cache.Request, net *nn.Net, trainWindow int64) {
	o, ok := s.objs[req.Key]
	if !ok {
		s.objs[req.Key] = &refObj{lastSeen: req.Time, size: req.Size, embVer: -1, scoreVer: -1, aged: s.tick()}
		full := len(s.objs) >= max(recordsPerResident*len(s.dense), s.floor)
		if !full && !s.draining {
			return
		}
		// Up to maxTrim of the oldest ghosts other than the new key go:
		// the oldest when the table is full, and any unseen for two
		// windows. If the next oldest is unseen for two windows too, the
		// next new key goes on draining.
		horizon := req.Time - 2*trainWindow
		gs := s.ghosts() // gs[0] is the new key
		n := 0
		for n < maxTrim && n < len(gs)-1 && (full && n == 0 || s.objs[gs[len(gs)-1-n]].lastSeen < horizon) {
			n++
		}
		for _, k := range gs[len(gs)-n:] {
			delete(s.objs, k)
		}
		next := len(gs) - 1 - n
		s.draining = n == maxTrim && next > 0 && s.objs[gs[next]].lastSeen < horizon
		if s.draining {
			s.drains++
		}
		return
	}
	o.epoch++
	tau := float64(req.Time - o.lastSeen)
	if tau < 1 {
		tau = 1
	}
	if len(o.hist) == historyLen {
		o.hist = append(o.hist[:0], o.hist[1:]...)
		s.shifts++
	}
	o.hist = append(o.hist, tau)
	if net != nil && o.embVer == net.Version {
		net.StepEmbed(o.emb, tau)
	}
	o.lastSeen, o.size = req.Time, req.Size
	if !o.resident {
		o.aged = s.tick()
	}
}

func (s *refStore) hit(key cache.Key) {
	for i, k := range s.lru {
		if k == key {
			copy(s.lru[1:i+1], s.lru[:i])
			s.lru[0] = key
			return
		}
	}
}

func (s *refStore) admit(key cache.Key) {
	s.objs[key].resident = true
	s.lru = append([]cache.Key{key}, s.lru...)
	s.dense = append(s.dense, key)
}

func (s *refStore) evict(key cache.Key) {
	o := s.objs[key]
	o.resident = false
	o.aged = s.tick()
	for i, k := range s.lru {
		if k == key {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
	for i, k := range s.dense {
		if k == key {
			s.dense[i] = s.dense[len(s.dense)-1]
			s.dense = s.dense[:len(s.dense)-1]
			break
		}
	}
}

// embed is the parent's lazy re-embedding.
func (o *refObj) embed(net *nn.Net) {
	if o.embVer != net.Version {
		o.emb = net.EmbedHistoryInto(o.emb, o.hist)
		o.embVer = net.Version
	}
}

// decided mirrors what a model-made decision leaves behind when every
// resident is a candidate (CandidateSample >= residents): the legacy
// estimator re-embeds the stale ones; the score cache re-embeds and
// re-stamps the dirty ones.
func (s *refStore) decided(net *nn.Net, scoreCache bool) {
	for _, k := range s.dense {
		o := s.objs[k]
		if !scoreCache {
			o.embed(net)
		} else if o.scoreVer != net.Version || o.scoreEp != o.epoch {
			o.embed(net)
			o.scoreEp, o.scoreVer = o.epoch, net.Version
		}
	}
}

// checkAgainst compares everything observable in r's table with the
// reference.
func (s *refStore) checkAgainst(t *testing.T, r *Raven) {
	t.Helper()
	tab := r.tab
	if tab.index.Len() != len(s.objs) {
		t.Fatalf("table holds %d records, reference %d", tab.index.Len(), len(s.objs))
	}
	keysOf := func(o order) []cache.Key {
		var ks []cache.Key
		for h := o.front; h != 0; h = tab.recs.At(h).next {
			ks = append(ks, tab.recs.At(h).key)
		}
		return ks
	}
	if got := keysOf(tab.lru); !slices.Equal(got, s.lru) {
		t.Fatalf("LRU order %v, reference %v", got, s.lru)
	}
	if got := keysOf(tab.ghosts); !slices.Equal(got, s.ghosts()) {
		t.Fatalf("age queue %v, reference %v", got, s.ghosts())
	}
	if len(tab.dense) != len(s.dense) {
		t.Fatalf("%d residents, reference %d", len(tab.dense), len(s.dense))
	}
	for i, h := range tab.dense {
		if k := tab.recs.At(h).key; k != s.dense[i] {
			t.Fatalf("dense[%d] = key %d, reference %d", i, k, s.dense[i])
		}
		if pos := tab.sides.At(tab.recs.At(h).res).pos; int(pos) != i {
			t.Fatalf("dense[%d] thinks it is at %d", i, pos)
		}
	}
	ver := -2
	if r.net != nil {
		ver = r.net.Version
	}
	for k, o := range s.objs {
		h := tab.index.Find(k)
		if h == 0 {
			t.Fatalf("key %d missing from the table", k)
		}
		rc := tab.recs.At(h)
		if rc.key != k || rc.lastSeen != o.lastSeen {
			t.Fatalf("key %d: record {%d %d}, reference {%d}", k, rc.key, rc.lastSeen, o.lastSeen)
		}
		if hist := ringTaus(tab, rc); !slices.Equal(hist, o.hist) {
			t.Fatalf("key %d: ring %v, reference %v", k, hist, o.hist)
		}
		if tab.resident(rc) != o.resident {
			t.Fatalf("key %d: resident %v, reference %v", k, tab.resident(rc), o.resident)
		}
		sd := r.sideOf(k)
		if live := o.embVer == ver; live {
			if sd == nil || int(sd.embVer) != ver || !slices.Equal(tab.emb(sd), o.emb) {
				t.Fatalf("key %d: live embedding lost or different (side %+v)", k, sd)
			}
		} else if sd != nil && int(sd.embVer) == ver {
			t.Fatalf("key %d: embedding is live, the reference's is stale", k)
		}
		if o.resident && sd.size != o.size {
			t.Fatalf("key %d: resident at size %d, reference %d", k, sd.size, o.size)
		}
		if o.resident {
			// A non-resident's stamps are unobservable: the miss that
			// re-admits it bumps the epoch before any decision reads them.
			want := o.scoreVer == ver && o.scoreEp == o.epoch
			if got := int(sd.scoreVer) == ver && sd.scoreEp == sd.epoch; got != want {
				t.Fatalf("key %d: cached score valid = %v, reference %v", k, got, want)
			}
		}
	}
}

// TestTableMatchesNaiveReference drives a Raven and the naive reference
// through the same random request stream — hits, misses, admissions
// with evictions, out-of-band evictions, admission predictions, model
// swaps by training and by hand, health changes — over a key space
// small enough that keys recur, fall off the age queue and come back,
// with the bound's floor shrunk so the trim runs constantly. After
// every step the two must agree on everything observable.
func TestTableMatchesNaiveReference(t *testing.T) {
	for _, scoreCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("scoreCache=%v", scoreCache), func(t *testing.T) {
			const (
				capacity    = 6
				floor       = 12
				trainWindow = 400
				steps       = 12000
			)
			r := New(Config{
				TrainWindow: trainWindow,
				ScoreCache:  scoreCache,
				Net:         nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
				Train:       nn.TrainConfig{MaxEpochs: 1, Patience: 1},
				Seed:        21,
			})
			r.net = nn.NewNet(nn.Config{Hidden: 4, MLPHidden: 6, K: 2, TimeScale: 20, Seed: 5})
			r.tab.floor = floor
			ref := &refStore{objs: map[cache.Key]*refObj{}, floor: floor}
			g := stats.NewRNG(99)
			now, peak := int64(0), 0
			var classes [ringClasses]bool // ring classes the run reached
			for step := 0; step < steps; step++ {
				now += int64(g.Intn(4))
				if step%3000 == 2999 {
					now += 2 * trainWindow // every ghost expires: the table drains
				}
				key := cache.Key(g.Intn(20))
				if g.Float64() < 0.35 {
					key = cache.Key(20 + g.Intn(150))
				}
				req := cache.Request{Time: now, Key: key, Size: 1 + int64(g.Intn(3))}
				net := r.net
				before := r.tab.index.Len()
				o := ref.objs[key]
				switch p := g.Float64(); {
				case p < 0.02:
					r.net.Version++ // a completed fit, as far as stamps can tell
				case p < 0.04:
					r.trips = g.Intn(3)
				case p < 0.10:
					// The prediction embeds the key whether or not the
					// mixture it then gets is usable.
					_, ok := r.PredictNextArrival(req)
					asked := o != nil && r.Health() != Fallback
					if ok && !asked {
						t.Fatalf("step %d: a prediction for an unknown key or from a distrusted model", step)
					}
					if asked {
						o.embed(net)
					}
				case p < 0.15 && len(ref.dense) > 0:
					victim := ref.dense[g.Intn(len(ref.dense))]
					r.OnEvict(victim)
					ref.evict(victim)
				case o != nil && o.resident:
					r.OnHit(req)
					ref.observe(req, net, trainWindow)
					ref.hit(key)
				default:
					r.OnMiss(req)
					ref.observe(req, net, trainWindow)
					if g.Float64() < 0.3 {
						break // admission control said no
					}
					for len(ref.dense) >= capacity {
						lruTail, modelDecides := ref.lru[len(ref.lru)-1], r.Health() != Fallback
						victim, ok := r.Victim()
						if !ok {
							t.Fatalf("step %d: no victim among %d residents", step, len(ref.dense))
						}
						if modelDecides && r.Health() != Fallback {
							ref.decided(r.net, scoreCache)
						} else if victim != lruTail {
							t.Fatalf("step %d: fallback victim %d, LRU tail %d", step, victim, lruTail)
						}
						r.OnEvict(victim)
						ref.evict(victim)
					}
					r.OnAdmit(req)
					ref.admit(key)
				}
				ref.checkAgainst(t, r)
				if h := r.tab.index.Find(key); h != 0 && r.tab.recs.At(h).ring != 0 {
					classes[r.tab.recs.At(h).ring>>ringClassShift] = true
				}

				n := r.tab.index.Len()
				if ceiling := max(recordsPerResident*len(r.tab.dense), floor); n > before && n >= ceiling {
					t.Fatalf("step %d: a new key grew the table to %d at a ceiling of %d", step, n, ceiling)
				}
				if hard := max(recordsPerResident*capacity, floor) - 1; n > hard {
					t.Fatalf("step %d: %d records, hard ceiling %d", step, n, hard)
				}
				peak = max(peak, n)
			}
			if len(r.TrainStats) == 0 || peak < max(recordsPerResident*capacity, floor)-1 {
				t.Fatalf("the run never trained (%d windows) or never neared its ceiling (peak %d records)", len(r.TrainStats), peak)
			}
			if slices.Contains(classes[:], false) || ref.shifts == 0 || ref.drains == 0 {
				t.Fatalf("the run reached ring classes %v, pushed into a full ring %d times and left the table draining %d times; want every class, a push and a drain",
					classes, ref.shifts, ref.drains)
			}
		})
	}
}

// TestHistoryStoreBoundedAndFlat is the regression test for the cliff:
// the parent bounded its history map with a sweep of the whole map,
// under the shard lock, on every new key past the threshold — freeing
// nothing until a key was two windows old, so inside one window the
// 200 001st distinct key and every one after it cost a full scan. Here
// a million distinct keys arrive inside one window. The record count
// must respect its ceiling at every step, no resident may be dropped,
// and the work per new key must be flat by construction: the trim may
// look at no more than two records per new key, amortized. (A timing
// ratio would say the same thing, but would flake on a shared host.)
func TestHistoryStoreBoundedAndFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("a million requests; skipped in -short mode")
	}
	const (
		keys      = 1_000_000
		residents = 300
	)
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1 << 40, MaxTrainObjects: 500, Obs: ro, Seed: 3})
	cached := make(map[cache.Key]bool, residents)
	for i := 0; i < keys; i++ {
		req := cache.Request{Time: int64(i), Key: cache.Key(i), Size: 1}
		r.OnMiss(req)
		if i%5 == 0 {
			if len(cached) == residents {
				victim, ok := r.Victim()
				if !ok || !cached[victim] {
					t.Fatalf("key %d: victim %d (ok %v) is not a resident", i, victim, ok)
				}
				r.OnEvict(victim)
				delete(cached, victim)
			}
			r.OnAdmit(req)
			cached[req.Key] = true
		}
		if n, res := r.tab.index.Len(), len(r.tab.dense); res != len(cached) || n > max(recordsPerResident*res, ghostFloor) {
			t.Fatalf("key %d: %d records, %d residents (want %d): ceiling %d", i, n, res, len(cached), max(recordsPerResident*res, ghostFloor))
		}
	}
	for k := range cached {
		if h := r.tab.index.Find(k); h == 0 || !r.tab.resident(r.tab.recs.At(h)) {
			t.Fatalf("resident %d was dropped from the table", k)
		}
	}
	if r.tab.examined > 2*keys {
		t.Errorf("the trim examined %d records for %d new keys; want at most 2 per key", r.tab.examined, keys)
	}
	dropped := ro.HistoryDropped.Load()
	if dropped < keys/2 {
		t.Errorf("only %d of %d keys were dropped: the run never reached the bound", dropped, keys)
	}
	if got, want := ro.HistoryRecords.Load(), int64(r.tab.index.Len()); got != want || want != keys-dropped {
		t.Errorf("raven.history_records = %d, table holds %d, %d keys minus %d dropped", got, want, keys, dropped)
	}
	if got := ro.HistoryResident.Load(); got != residents {
		t.Errorf("raven.history_resident = %d, want %d", got, residents)
	}
}

// TestHistoryFloorIsAMinimum: the record ceiling is max(
// recordsPerResident × resident, ghostFloor), not their sum. (a) A table
// of fewer keys than the floor drops nothing, whatever the residents
// allow — which is why every replay with fewer keys than ghostFloor is
// the same program under either form. (b) Once recordsPerResident ×
// resident is above the floor, it alone bounds the table: the count
// never passes it by more than the new key in flight.
func TestHistoryFloorIsAMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("a million requests; skipped in -short mode")
	}
	// run sends keys distinct keys through a cache of residents objects,
	// admitting every key until it is full and then one in five, each
	// after evicting the policy's victim, and calls check after every
	// request.
	run := func(keys, residents int, check func(i, records, resident int)) *obs.RavenObs {
		ro := &obs.RavenObs{}
		r := New(Config{TrainWindow: 1 << 40, MaxTrainObjects: 500, Obs: ro, Seed: 5})
		cached := 0
		for i := 0; i < keys; i++ {
			req := cache.Request{Time: int64(i), Key: cache.Key(i), Size: 1}
			r.OnMiss(req)
			if cached < residents || i%5 == 0 {
				if cached == residents {
					victim, ok := r.Victim()
					if !ok {
						t.Fatalf("key %d: no victim among %d residents", i, cached)
					}
					r.OnEvict(victim)
					cached--
				}
				r.OnAdmit(req)
				cached++
			}
			check(i, r.tab.index.Len(), len(r.tab.dense))
		}
		return ro
	}

	t.Run("below the floor", func(t *testing.T) {
		const residents = 1000
		if recordsPerResident*residents >= ghostFloor {
			t.Fatalf("%d residents allow %d records, not below the floor %d", residents, recordsPerResident*residents, ghostFloor)
		}
		ro := run(ghostFloor-1, residents, func(int, int, int) {})
		if got := ro.HistoryDropped.Load(); got != 0 {
			t.Errorf("raven.history_dropped = %d with %d keys under a floor of %d; want 0", got, ghostFloor-1, ghostFloor)
		}
		if got := ro.HistoryRecords.Load(); got != ghostFloor-1 {
			t.Errorf("raven.history_records = %d, want every one of the %d keys", got, ghostFloor-1)
		}
	})

	t.Run("above the floor", func(t *testing.T) {
		residents := ghostFloor/recordsPerResident + ghostFloor/(4*recordsPerResident)
		ceiling := recordsPerResident * residents
		peak, checked := 0, 0
		ro := run(3*ceiling, residents, func(i, n, res int) {
			if recordsPerResident*res <= ghostFloor {
				return
			}
			if bound := recordsPerResident*res + 1; n > bound {
				t.Fatalf("key %d: %d records for %d residents; want at most %d×%d + 1 = %d", i, n, res, recordsPerResident, res, bound)
			}
			peak = max(peak, n)
			checked++
		})
		if ro.HistoryDropped.Load() == 0 || peak < ceiling-1 || checked < ceiling {
			t.Fatalf("the run never reached its ceiling %d: peak %d records, %d dropped, %d steps above the floor",
				ceiling, peak, ro.HistoryDropped.Load(), checked)
		}
	})
}

// TestTrimIsBounded: however many ghosts have expired, a new key drops
// at most maxTrim records, so no request pays for a whole backlog under
// the shard lock; the table drains the rest over the new keys that
// follow, below its ceiling too.
func TestTrimIsBounded(t *testing.T) {
	const window, ghosts = 100, 100
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: window, MaxTrainObjects: 64, Obs: ro, Seed: 3})
	now := int64(0)
	miss := func(k cache.Key) int64 {
		before := ro.HistoryDropped.Load()
		now++
		r.OnMiss(cache.Request{Time: now, Key: k, Size: 1})
		return ro.HistoryDropped.Load() - before
	}
	for k := cache.Key(1); k <= ghosts; k++ {
		miss(k)
	}
	SetHistoryBound(r, recordsPerResident, ghosts)
	now += 2 * window // every ghost is now more than two windows old
	for k := cache.Key(ghosts + 1); r.tab.index.Find(ghosts) != 0; k++ {
		if k > 2*ghosts {
			t.Fatalf("%d new keys left expired ghosts behind", ghosts)
		}
		if d := miss(k); d > maxTrim || d == 0 {
			t.Fatalf("new key %d dropped %d records; want 1 to %d", k, d, maxTrim)
		}
	}
	if r.tab.draining {
		t.Error("the table is still draining with no expired ghost left")
	}
	if got := ro.HistoryDropped.Load(); got != ghosts {
		t.Errorf("raven.history_dropped = %d, want the %d expired ghosts", got, ghosts)
	}
}

// atCeiling builds a model-less Raven whose table sits at its (shrunken)
// ceiling with a full window sample, so what a request costs from here
// on is the steady state: records are recycled, nothing grows.
func atCeiling(residents, floor int) (r *Raven, resident []cache.Key, next *cache.Request) {
	r = New(Config{TrainWindow: 1 << 40, MaxTrainObjects: 64, Seed: 3})
	r.tab.floor = floor
	next = &cache.Request{Size: 1}
	for i := 0; i < 2*max(recordsPerResident*residents, floor); i++ {
		next.Time++
		next.Key++
		r.OnMiss(*next)
		if len(resident) < residents {
			r.OnAdmit(*next)
			resident = append(resident, next.Key)
		}
	}
	return r, resident, next
}

// TestRequestPathAllocFree: with the table at its working size, none of
// the policy's per-request entry points touches the heap, with or
// without a model installed.
func TestRequestPathAllocFree(t *testing.T) {
	r, resident, next := atCeiling(64, 2000)
	ghost := *next // the youngest ghost: known, not resident
	cycle := func(name string, op func()) {
		t.Helper()
		for i := 0; i < 4*historyLen; i++ {
			op() // fill rings and window sequences to their caps
		}
		if avg := testing.AllocsPerRun(500, op); avg != 0 {
			t.Errorf("%s allocates %.1f times per op; want 0", name, avg)
		}
	}
	i := 0
	hit := func() {
		next.Time++
		i++
		r.OnHit(cache.Request{Time: next.Time, Key: resident[i%len(resident)], Size: 1})
	}
	cycle("a hit", hit)
	cycle("a miss on a known key", func() {
		next.Time++
		ghost.Time = next.Time
		r.OnMiss(ghost)
	})
	cycle("a miss on a new key (recycling a dropped record)", func() {
		next.Time++
		next.Key++
		r.OnMiss(*next)
	})
	records := r.tab.index.Len()
	cycle("a miss, an evict and an admit", func() {
		next.Time++
		next.Key++
		r.OnMiss(*next)
		victim, _ := r.Victim()
		r.OnEvict(victim)
		r.OnAdmit(*next)
	})
	if r.tab.index.Len() != records || len(r.tab.dense) != len(resident) {
		t.Fatalf("the table moved while measuring: %d → %d records, %d residents", records, r.tab.index.Len(), len(r.tab.dense))
	}

	// The same hit under an installed model, every resident's embedding
	// live: observe advances it in place with nn.StepEmbed.
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	r.net.Version = 1
	for j, h := range r.tab.dense {
		rc := r.tab.recs.At(h)
		r.embedding(rc)
		resident[j] = rc.key
	}
	probe := r.tab.sides.At(r.tab.recs.At(r.tab.index.Find(resident[(i+1)%len(resident)])).res)
	before := slices.Clone(r.tab.emb(probe))
	hit()
	if slices.Equal(r.tab.emb(probe), before) {
		t.Fatal("a hit on a live embedding did not step it")
	}
	cycle("a hit on a live embedding", hit)
}

// TestEmbeddingWidthChange: a model of another state width (a resumed
// checkpoint replaced by a fresh net) discards every embedding and
// re-embeds from the rings at the new width.
func TestEmbeddingWidthChange(t *testing.T) {
	h := newFastHarness(nil)
	h.evictAdmit(t) // embeds every resident at width 8
	wide := nn.NewNet(nn.Config{Hidden: 12, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	wide.Version = h.r.net.Version + 1
	h.r.net = wide
	h.r.invalidateFastPath()
	h.touchAll() // every resident is dirty, so the next decision embeds them all
	h.evictAdmit(t)
	for _, k := range h.resident[:len(h.resident)-1] {
		rc := h.r.tab.recs.At(h.r.tab.index.Find(k))
		want := wide.EmbedHistoryInto(nil, ringTaus(h.r.tab, rc))
		if got := h.r.tab.emb(h.r.tab.sides.At(rc.res)); !slices.Equal(got, want) {
			t.Fatalf("key %d: embedding %v after the width change, want %v", k, got, want)
		}
	}
}

// chunks is how many chunks a slab holds once it has issued handle top.
func chunks(top uint32) int64 {
	if top == 0 {
		return 0
	}
	c, _ := cache.SlabPos(top)
	return int64(c) + 1
}

// tableBytes is t's footprint split by what holds it: the chunks of its
// record, ring, side and embedding slabs, and its index's slots.
type tableBytes struct{ recs, rings, sides, embs, index int64 }

func (b tableBytes) total() int64 { return b.recs + b.rings + b.sides + b.embs + b.index }

// footprint recomputes what raven.table_bytes should read for t from
// the chunk counts of its slabs and its index's slots.
func footprint(t *table) tableBytes {
	b := tableBytes{
		recs:  chunks(t.recs.Top()) * cache.SlabChunk * int64(unsafe.Sizeof(rec{})),
		sides: chunks(t.sides.Top()) * cache.SlabChunk * int64(unsafe.Sizeof(resRec{})),
		embs:  8 * chunks(t.embs.Top()) * cache.SlabChunk * int64(t.dim),
		index: t.index.Bytes(),
	}
	for c := range t.rings {
		b.rings += 4 * chunks(t.rings[c].Top()) * cache.SlabChunk * int64(ringWidth(c))
		b.rings += 8 * chunks(t.wide[c].Top()) * cache.SlabChunk * int64(ringWidth(c))
	}
	return b
}

// TestTableBytesGauge: the policies of a four-shard engine share one
// RavenObs, and after a replay that embeds under one model width and
// then another (which drops the first width's embedding chunks),
// raven.table_bytes equals the sum of their tables' footprints.
func TestTableBytesGauge(t *testing.T) {
	ro := &obs.RavenObs{}
	net := func(hidden int, ver int) *nn.Net {
		n := nn.NewNet(nn.Config{Hidden: hidden, MLPHidden: 6, K: 2, TimeScale: 20, Seed: 5})
		n.Version = ver
		return n
	}
	var ravens []*Raven
	eng, err := cache.NewSharded(400, 4, func(shard int, _ int64) (cache.Policy, error) {
		r := New(Config{TrainWindow: 1 << 40, CandidateSample: 8, ScoreCache: true, Obs: ro, Seed: int64(shard)})
		r.net = net(4, 1)
		ravens = append(ravens, r)
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Synthetic(trace.SynthConfig{Objects: 20000, Requests: 60000, Seed: 9})
	for i, req := range tr.Reqs {
		if i == len(tr.Reqs)/2 {
			for _, r := range ravens {
				r.net = net(6, 2)
				r.invalidateFastPath()
			}
		}
		eng.Handle(req)
	}
	var want int64
	for _, r := range ravens {
		want += footprint(r.tab).total()
		for c := range r.tab.rings {
			if r.tab.rings[c].Top() == 0 {
				t.Fatalf("no ring of class %d: the replay left part of the table unexercised", c)
			}
		}
		if r.tab.dim != 6 || r.tab.embs.Top() == 0 || chunks(r.tab.recs.Top()) < 2 {
			t.Fatalf("the replay left part of the table unexercised: width %d, %d embedding chunks, %d record chunks",
				r.tab.dim, chunks(r.tab.embs.Top()), chunks(r.tab.recs.Top()))
		}
	}
	if got := ro.TableBytes.Load(); got != want {
		t.Errorf("raven.table_bytes = %d, the tables' chunks add up to %d", got, want)
	}
}

// indexTombstones returns the deleted slots of each sub-table of ix, a
// count the index keeps to itself.
func indexTombstones(ix *cache.HandleIndex) []int64 {
	subs := reflect.ValueOf(ix).Elem().FieldByName("subs")
	field, _ := subs.Type().Elem().FieldByName("dead")
	dead := make([]int64, subs.Len())
	for i := range dead {
		dead[i] = subs.Index(i).FieldByIndex(field.Index).Int()
	}
	return dead
}

// TestTableBytesAcrossIndexRebuilds: raven.table_bytes stays the slabs'
// chunk bytes plus the index's bytes through a stream of new keys that
// grows the index, then, with the table at its ceiling, trims the oldest
// ghosts and makes the index purge the tombstones their deletes leave.
// A purge shows as a sub-table losing more than the one tombstone an
// insert may reuse.
func TestTableBytesAcrossIndexRebuilds(t *testing.T) {
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1 << 40, Obs: ro, Seed: 3})
	r.tab.floor = 4000
	next := cache.Request{Size: 1}
	grew, purges := 0, 0
	bytes, dead := r.tab.index.Bytes(), indexTombstones(r.tab.index)
	for i := 0; i < 10*r.tab.floor; i++ {
		next.Time++
		next.Key++
		r.OnMiss(next)
		if i < 64 {
			r.OnAdmit(next)
		}
		if b := r.tab.index.Bytes(); b != bytes {
			grew++
			bytes = b
		}
		was := dead
		dead = indexTombstones(r.tab.index)
		for s := range dead {
			if dead[s] < was[s]-1 {
				purges++
			}
		}
		if got, want := ro.TableBytes.Load(), footprint(r.tab).total(); got != want {
			t.Fatalf("key %d: raven.table_bytes = %d, the slabs and the index add up to %d", i, got, want)
		}
	}
	if grew == 0 || purges == 0 || ro.HistoryDropped.Load() == 0 {
		t.Errorf("the stream grew the index %d times, purged %d times and trimmed %d records; want each > 0",
			grew, purges, ro.HistoryDropped.Load())
	}
}

// TestRavenFootprint pins the §6.1.1 footprint to the record
// layouts it is derived from, so growing a record shows up here (and in
// EXPERIMENTS.md "Ablations and §6.1.1 overhead") instead of silently.
func TestRavenFootprint(t *testing.T) {
	if RecordBytes != 32 || RingBytes != 4*historyLen || WideRingBytes != 8*historyLen || unsafe.Sizeof(resRec{}) != 48 {
		t.Errorf("record layouts: core %d B, ring %d B, wide ring %d B, side %d B; want 32, %d, %d, 48",
			RecordBytes, RingBytes, WideRingBytes, unsafe.Sizeof(resRec{}), 4*historyLen, 8*historyLen)
	}
	r := New(Config{TrainWindow: 1, Net: nn.Config{Hidden: 16}})
	if got, want := r.MetadataBytesPerObject(), int64(32+48+64+8*16); got != want {
		t.Errorf("MetadataBytesPerObject = %d at hidden 16, want %d", got, want)
	}
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 1})
	if got, want := r.MetadataBytesPerObject(), int64(32+48+64+8*8); got != want {
		t.Errorf("MetadataBytesPerObject = %d under a hidden-8 model, want %d", got, want)
	}
}

// TestEmbeddingMemoryFollowsEmbeddings: embedding memory is held for the
// embeddings computed, not for the side records. With thousands of
// residents and a handful of embeddings, the embedding slab holds the
// chunks those need; raven.table_bytes agrees with the slabs; and a
// change of model width drops them all.
func TestEmbeddingMemoryFollowsEmbeddings(t *testing.T) {
	const (
		residents = 3000
		embedded  = 134
	)
	ro := &obs.RavenObs{}
	r := New(Config{TrainWindow: 1 << 40, Obs: ro, Seed: 4})
	for i := 1; i <= residents; i++ {
		req := cache.Request{Time: int64(i), Key: cache.Key(i), Size: 1}
		r.OnMiss(req)
		r.OnHit(req) // a ring too, so the embedding has history to run
		r.OnAdmit(req)
	}
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	r.net.Version = 1
	r.topVer = 1
	for i := 1; i <= embedded; i++ {
		if _, ok := r.PredictNextArrival(cache.Request{Key: cache.Key(i * 7), Size: 1}); !ok {
			t.Fatalf("no prediction for resident %d", i*7)
		}
	}
	tab := r.tab
	if got := chunks(tab.sides.Top()); got < residents/cache.SlabChunk {
		t.Fatalf("%d side chunks for %d residents", got, residents)
	}
	if top, want := tab.embs.Top(), uint32(embedded); top != want {
		t.Fatalf("the embedding slab issued %d handles for %d embeddings", top, want)
	}
	if got, want := chunks(tab.embs.Top()), int64((embedded+cache.SlabChunk-1)/cache.SlabChunk); got != want {
		t.Errorf("%d embedding chunks for %d embeddings; want %d", got, embedded, want)
	}
	fp := footprint(tab)
	if got := ro.TableBytes.Load(); got != fp.total() {
		t.Errorf("raven.table_bytes = %d, the slabs add up to %d", got, fp.total())
	}
	if fp.embs != 8*cache.SlabChunk*8 {
		t.Errorf("embeddings hold %d B; want one chunk of width 8, %d B", fp.embs, 8*cache.SlabChunk*8)
	}

	// A wider model drops every embedding with the slab.
	r.net = nn.NewNet(nn.Config{Hidden: 12, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	r.net.Version = 2
	r.invalidateFastPath()
	tab.setDim(12)
	if tab.embs.Top() != 0 || footprint(tab).embs != 0 {
		t.Fatalf("a width change left %d embedding handles", tab.embs.Top())
	}
	for h := uint32(1); h <= tab.sides.Top(); h++ {
		if sd := tab.sides.At(h); sd.emb != 0 || sd.embVer != -1 {
			t.Fatalf("side %d keeps embedding handle %d (version %d) past a width change", h, sd.emb, sd.embVer)
		}
	}
	if _, ok := r.PredictNextArrival(cache.Request{Key: 1, Size: 1}); !ok {
		t.Fatal("no prediction under the wider model")
	}
	fp = footprint(tab)
	if got := ro.TableBytes.Load(); got != fp.total() || fp.embs != 8*cache.SlabChunk*12 {
		t.Errorf("raven.table_bytes = %d with %d B of embeddings; the slabs add up to %d, one width-12 chunk is %d B",
			got, fp.embs, fp.total(), 8*cache.SlabChunk*12)
	}
}

// TestWindowRolloverAllocFree: a window rollover at the table's ceiling
// — reset, which clears both bitsets and empties the taken index, then
// the sampling of a full window from the table's records, one of them
// forgotten and taken again — allocates nothing once the bitsets and
// the index have grown. No fit runs: training allocates per window by
// design.
func TestWindowRolloverAllocFree(t *testing.T) {
	r, _, next := atCeiling(64, 2000)
	var handles []uint32
	for _, o := range []order{r.tab.lru, r.tab.ghosts} {
		for h := o.front; h != 0; h = r.tab.recs.At(h).next {
			handles = append(handles, h)
		}
	}
	w := r.window
	record := func(h uint32) {
		w.record(cache.Request{Time: next.Time, Key: r.tab.recs.At(h).key, Size: 1}, h)
	}
	rollover := func() {
		next.Time++
		w.reset(next.Time)
		for i, h := range handles {
			record(h)
			if i == 2 {
				w.forget(handles[0])
				record(handles[0])
			}
		}
	}
	for i := 0; i < 4; i++ {
		rollover()
	}
	if len(w.sampled) != w.maxObjects || len(handles) < 4*w.maxObjects || w.slots.Find(cache.Key(handles[0])) != 4 {
		t.Fatalf("sampled %d of %d records, the retaken key at slot %d; want a full window of %d, the retaken key at slot 4",
			len(w.sampled), len(handles), w.slots.Find(cache.Key(handles[0])), w.maxObjects)
	}
	if avg := testing.AllocsPerRun(50, rollover); avg != 0 {
		t.Errorf("a window rollover allocates %.1f times; want 0", avg)
	}
}
