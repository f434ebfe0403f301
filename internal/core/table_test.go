package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
)

// White-box accessors: tests name an object by key, the table by handle.

// lruTail returns the key the LRU fallback would evict next.
func (r *Raven) lruTail() cache.Key { return r.tab.recs.at(r.tab.lru.back).key }

// sideOf returns key's side record (nil when it has none).
func (r *Raven) sideOf(key cache.Key) *resRec {
	h := r.tab.index[key]
	if h == 0 || r.tab.recs.at(h).res == 0 {
		return nil
	}
	return r.tab.sides.at(r.tab.recs.at(h).res)
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
		if len(s.objs) < ghostsPerResident*len(s.dense)+s.floor {
			return
		}
		horizon := req.Time - 2*trainWindow
		for dropped := 0; ; dropped++ {
			gs := s.ghosts()
			if gs[len(gs)-1] == req.Key {
				return
			}
			old := gs[len(gs)-1]
			if dropped > 0 && s.objs[old].lastSeen >= horizon {
				return
			}
			delete(s.objs, old)
		}
	}
	o.epoch++
	tau := float64(req.Time - o.lastSeen)
	if tau < 1 {
		tau = 1
	}
	if len(o.hist) == historyLen {
		o.hist = append(o.hist[:0], o.hist[1:]...)
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
	if len(tab.index) != len(s.objs) {
		t.Fatalf("table holds %d records, reference %d", len(tab.index), len(s.objs))
	}
	keysOf := func(o order) []cache.Key {
		var ks []cache.Key
		for h := o.front; h != 0; h = tab.recs.at(h).next {
			ks = append(ks, tab.recs.at(h).key)
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
		if k := tab.recs.at(h).key; k != s.dense[i] {
			t.Fatalf("dense[%d] = key %d, reference %d", i, k, s.dense[i])
		}
		if pos := tab.sides.at(tab.recs.at(h).res).pos; int(pos) != i {
			t.Fatalf("dense[%d] thinks it is at %d", i, pos)
		}
	}
	ver := -2
	if r.net != nil {
		ver = r.net.Version
	}
	for k, o := range s.objs {
		h := tab.index[k]
		if h == 0 {
			t.Fatalf("key %d missing from the table", k)
		}
		rc := tab.recs.at(h)
		if rc.key != k || rc.lastSeen != o.lastSeen || rc.size != o.size {
			t.Fatalf("key %d: record {%d %d %d}, reference {%d %d}", k, rc.key, rc.lastSeen, rc.size, o.lastSeen, o.size)
		}
		var hist []float64
		if rc.ring != 0 {
			hist = tab.rings.at(rc.ring).taus()
		}
		if !slices.Equal(hist, o.hist) {
			t.Fatalf("key %d: ring %v, reference %v", k, hist, o.hist)
		}
		if tab.resident(rc) != o.resident {
			t.Fatalf("key %d: resident %v, reference %v", k, tab.resident(rc), o.resident)
		}
		sd := r.sideOf(k)
		if live := o.embVer == ver; live {
			if sd == nil || int(sd.embVer) != ver || !slices.Equal(tab.emb(rc.res), o.emb) {
				t.Fatalf("key %d: live embedding lost or different (side %+v)", k, sd)
			}
		} else if sd != nil && int(sd.embVer) == ver {
			t.Fatalf("key %d: embedding is live, the reference's is stale", k)
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
			for step := 0; step < steps; step++ {
				now += int64(g.Intn(4))
				key := cache.Key(g.Intn(20))
				if g.Float64() < 0.35 {
					key = cache.Key(20 + g.Intn(150))
				}
				req := cache.Request{Time: now, Key: key, Size: 1 + int64(g.Intn(3))}
				net := r.net
				before := len(r.tab.index)
				o := ref.objs[key]
				switch p := g.Float64(); {
				case p < 0.02:
					r.net.Version++ // a completed fit, as far as stamps can tell
				case p < 0.04:
					r.health = Health(g.Intn(3))
				case p < 0.10:
					// The prediction embeds the key whether or not the
					// mixture it then gets is usable.
					_, ok := r.PredictNextArrival(req)
					asked := o != nil && r.health != Fallback
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
						lruTail, modelDecides := ref.lru[len(ref.lru)-1], r.health != Fallback
						victim, ok := r.Victim()
						if !ok {
							t.Fatalf("step %d: no victim among %d residents", step, len(ref.dense))
						}
						if modelDecides && r.health != Fallback {
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

				n := len(r.tab.index)
				if ceiling := ghostsPerResident*len(r.tab.dense) + floor; n > before && n >= ceiling {
					t.Fatalf("step %d: a new key grew the table to %d at a ceiling of %d", step, n, ceiling)
				}
				if n > ghostsPerResident*capacity+floor {
					t.Fatalf("step %d: %d records, hard ceiling %d", step, n, ghostsPerResident*capacity+floor)
				}
				peak = max(peak, n)
			}
			if len(r.TrainStats) == 0 || peak < ghostsPerResident*capacity {
				t.Fatalf("the run never trained (%d windows) or never neared its ceiling (peak %d records)", len(r.TrainStats), peak)
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
		if n, res := len(r.tab.index), len(r.tab.dense); res != len(cached) || n > 9*res+ghostFloor {
			t.Fatalf("key %d: %d records, %d residents (want %d): ceiling %d", i, n, res, len(cached), 9*res+ghostFloor)
		}
	}
	for k := range cached {
		if h := r.tab.index[k]; h == 0 || !r.tab.resident(r.tab.recs.at(h)) {
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
	if got, want := ro.HistoryRecords.Load(), int64(len(r.tab.index)); got != want || want != keys-dropped {
		t.Errorf("raven.history_records = %d, table holds %d, %d keys minus %d dropped", got, want, keys, dropped)
	}
	if got := ro.HistoryResident.Load(); got != residents {
		t.Errorf("raven.history_resident = %d, want %d", got, residents)
	}
}

// atCeiling builds a model-less Raven whose table sits at its (shrunken)
// ceiling with a full window sample, so what a request costs from here
// on is the steady state: records are recycled, nothing grows.
func atCeiling(residents, floor int) (r *Raven, resident []cache.Key, next *cache.Request) {
	r = New(Config{TrainWindow: 1 << 40, MaxTrainObjects: 64, Seed: 3})
	r.tab.floor = floor
	next = &cache.Request{Size: 1}
	for i := 0; i < 2*(ghostsPerResident*residents+floor); i++ {
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
	records := len(r.tab.index)
	cycle("a miss, an evict and an admit", func() {
		next.Time++
		next.Key++
		r.OnMiss(*next)
		victim, _ := r.Victim()
		r.OnEvict(victim)
		r.OnAdmit(*next)
	})
	if len(r.tab.index) != records || len(r.tab.dense) != len(resident) {
		t.Fatalf("the table moved while measuring: %d → %d records, %d residents", records, len(r.tab.index), len(r.tab.dense))
	}

	// The same hit under an installed model, every resident's embedding
	// live: observe advances it in place with nn.StepEmbed.
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 11})
	r.net.Version = 1
	for j, h := range r.tab.dense {
		rc := r.tab.recs.at(h)
		r.embedding(rc)
		resident[j] = rc.key
	}
	probe := r.tab.recs.at(r.tab.index[resident[(i+1)%len(resident)]]).res
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
		rc := h.r.tab.recs.at(h.r.tab.index[k])
		want := wide.EmbedHistoryInto(nil, h.r.tab.rings.at(rc.ring).taus())
		if got := h.r.tab.emb(rc.res); !slices.Equal(got, want) {
			t.Fatalf("key %d: embedding %v after the width change, want %v", k, got, want)
		}
	}
}

// TestRavenFootprint pins the §6.1.1 footprint to the record
// layouts it is derived from, so growing a record shows up here (and in
// EXPERIMENTS.md "Overhead") instead of silently.
func TestRavenFootprint(t *testing.T) {
	if RecordBytes != 48 || RingBytes != 8+8*historyLen || unsafe.Sizeof(resRec{}) != 40 {
		t.Errorf("record layouts: core %d B, ring %d B, side %d B; want 48, %d, 40",
			RecordBytes, RingBytes, unsafe.Sizeof(resRec{}), 8+8*historyLen)
	}
	r := New(Config{TrainWindow: 1, Net: nn.Config{Hidden: 16}})
	if got, want := r.MetadataBytesPerObject(), int64(48+40+136+8*16); got != want {
		t.Errorf("MetadataBytesPerObject = %d at hidden 16, want %d", got, want)
	}
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 1})
	if got, want := r.MetadataBytesPerObject(), int64(48+40+136+8*8); got != want {
		t.Errorf("MetadataBytesPerObject = %d under a hidden-8 model, want %d", got, want)
	}
}
