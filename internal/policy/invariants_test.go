package policy

import (
	"fmt"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/stats"
	"raven/internal/trace"
)

// model is a deliberately naive cache: a map of resident sizes plus the
// counters of cache.Stats, with no policy and no shards. It never looks
// inside the engine. It learns what happened from the operation and its
// return value and from tap — a pass-through around each shard's policy
// that reports every call the engine makes on it, which is also how the
// cache.Policy call contract is checked.
type model struct {
	t        *testing.T
	resident map[cache.Key]modelEntry
	used     int64
	st       cache.Stats

	// Per-operation state.
	key          cache.Key // the key the running operation asked for
	hits, misses int       // OnHit / OnMiss calls seen
	admitted     bool      // that key's admission was seen
}

type modelEntry struct {
	size int64
	hit  bool // looked up since insertion
}

// observe checks an OnHit (hit) or OnMiss for the operation's own key.
func (m *model) observe(req cache.Request, hit bool) {
	if req.Key != m.key {
		m.t.Fatalf("OnHit/OnMiss(%d) while serving key %d", req.Key, m.key)
	}
	if hit {
		m.hits++
	} else {
		m.misses++
	}
}

func (m *model) insert(req cache.Request) {
	if _, ok := m.resident[req.Key]; ok {
		m.t.Fatalf("OnAdmit(%d) for an object the model already holds", req.Key)
	}
	if req.Key != m.key || m.misses != 1 || m.admitted {
		m.t.Fatalf("OnAdmit(%d) while serving key %d (OnMiss calls %d, admission seen %v)",
			req.Key, m.key, m.misses, m.admitted)
	}
	m.admitted = true
	m.st.Admissions++
	m.resident[req.Key] = modelEntry{size: req.Size}
	m.used += req.Size
}

func (m *model) evict(victim cache.Key) {
	e, ok := m.resident[victim]
	if !ok {
		m.t.Fatalf("OnEvict(%d), which the model does not hold", victim)
	}
	delete(m.resident, victim)
	m.used -= e.size
	m.st.Evictions++
	if !e.hit {
		m.st.OneHitWonders++
	}
}

// lookup applies a Handle before the engine runs it and predicts the
// outcome: a hit iff the model holds the key.
func (m *model) lookup(req cache.Request) (hit bool) {
	m.st.Requests++
	m.st.ReqBytes += req.Size
	e, ok := m.resident[req.Key]
	if !ok {
		return false
	}
	m.st.Hits++
	m.st.HitBytes += req.Size
	e.hit = true
	m.resident[req.Key] = e
	return true
}

// store applies a Set before the engine runs it and reports whether it
// is a refresh: the key resident at the same size, which stores nothing.
func (m *model) store(req cache.Request) (refresh bool) {
	m.st.Sets++
	e, ok := m.resident[req.Key]
	return ok && e.size == req.Size
}

// settle closes an operation. hit says the policy had to see it as one
// (a lookup that hit, a refreshing Set): exactly one OnHit and nothing
// else. Otherwise the operation had to insert its key — exactly one
// OnMiss, and no admission seen means it was refused.
func (m *model) settle(hit bool) {
	if m.hits+m.misses != 1 || (m.hits == 1) != hit {
		m.t.Fatalf("key %d: %d OnHit and %d OnMiss calls, want exactly one (OnHit: %v)", m.key, m.hits, m.misses, hit)
	}
	if !hit && !m.admitted {
		m.st.Rejections++
	}
}

// tap reports every call the engine makes on a shard's policy to the
// model, and forwards the optional face the engine looks for.
type tap struct {
	cache.Policy
	m *model
}

func (p *tap) OnHit(req cache.Request) {
	p.m.observe(req, true)
	p.Policy.OnHit(req)
}

func (p *tap) OnMiss(req cache.Request) {
	p.m.observe(req, false)
	p.Policy.OnMiss(req)
}

func (p *tap) OnAdmit(req cache.Request) {
	p.m.insert(req)
	p.Policy.OnAdmit(req)
}

func (p *tap) OnEvict(key cache.Key) {
	p.m.evict(key)
	p.Policy.OnEvict(key)
}

func (p *tap) Admit(req cache.Request) cache.Decision { return cache.PolicyAdmit(p.Policy, req) }

// step is one operation of a lockstep run.
type step struct {
	req cache.Request
	set bool
}

// modelOptions configures name for a lockstep run over a trace of the
// given duration: plain, or behind the admission front (the learned
// pipeline for the Raven variants, the doorkeeper for the rest).
func modelOptions(name string, front bool, capacity, duration int64) Options {
	o := Options{Capacity: capacity, TrainWindow: duration/5 + 1, Seed: 9}
	raven := name == "raven" || name == "raven-ohr"
	if raven {
		// A short window and a small net.
		o.Raven = &core.Config{
			MaxTrainObjects: 120,
			Net:             nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
			Train:           nn.TrainConfig{MaxEpochs: 2, Patience: 1},
		}
	}
	if front {
		o.Admission.Mode = AdmitDoorkeeper
		if raven {
			o.Admission.Mode = AdmitLearned
		}
	}
	return o
}

// runModel drives the engine and the model in lockstep over steps and
// checks after every step that the engine holds exactly the model's
// keys (it Contains each, and its Len is their count), that its Used
// and StatsSnapshot are the model's, the cache.Policy call contract —
// exactly one of OnHit/OnMiss per operation, for its key; OnAdmit only
// for that key and only after its OnMiss; OnEvict only for a resident
// key — and the accounting identities that the metrics, the benchmark's
// reconciliation gate and the operators' dashboards rely on:
//
//   - every lookup and every storing SET ends as exactly one of hit,
//     admission, rejection;
//   - the per-reason reject counters sum to the rejections;
//   - admissions - evictions == the resident objects (admit is the
//     only way in; these runs never give a shard a fresh counter block);
//   - 0 <= used == the resident objects' bytes <= capacity.
//
// It returns the final statistics and the policy-reason reject count.
func runModel(t *testing.T, name string, o Options, shards int, steps []step) (cache.Stats, int64) {
	factory, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	m := &model{t: t, resident: map[cache.Key]modelEntry{}}
	perShard := factory.PerShard(o, shards)
	eng, err := cache.NewSharded(o.Capacity, shards, func(i int, c int64) (cache.Policy, error) {
		p, err := perShard(i, c)
		return &tap{p, m}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	cobs := make([]*obs.CacheObs, eng.Shards())
	for i := range cobs {
		cobs[i] = &obs.CacheObs{}
		eng.SetShardObs(i, cobs[i])
	}

	var fills int64 // SETs that had to store: not a same-size refresh
	for i, s := range steps {
		m.key, m.hits, m.misses, m.admitted = s.req.Key, 0, 0, false
		if s.set {
			refresh := m.store(s.req)
			if !refresh {
				fills++
			}
			stored := eng.Set(s.req)
			if (refresh && m.admitted) || stored != (refresh || m.admitted) {
				t.Fatalf("step %d: Set(%d) returned %v; refresh %v, admission seen %v", i, s.req.Key, stored, refresh, m.admitted)
			}
			m.settle(refresh)
		} else {
			want := m.lookup(s.req)
			if hit := eng.Handle(s.req); hit != want || (hit && m.admitted) {
				t.Fatalf("step %d: Handle(%d) returned %v, the model predicted %v (admission seen %v)", i, s.req.Key, hit, want, m.admitted)
			}
			m.settle(want)
		}

		st := eng.StatsSnapshot()
		if st != m.st {
			t.Fatalf("step %d: engine stats %+v, model %+v", i, st, m.st)
		}
		if used := eng.Used(); used != m.used || used < 0 || used > eng.Capacity() {
			t.Fatalf("step %d: used %d, model %d, capacity %d", i, used, m.used, eng.Capacity())
		}
		var bytes int64
		for k, e := range m.resident {
			bytes += e.size
			if !eng.Contains(k) {
				t.Fatalf("step %d: the model holds %d, the engine does not", i, k)
			}
		}
		if eng.Len() != len(m.resident) || bytes != m.used {
			t.Fatalf("step %d: engine Len %d, model %d objects (%d bytes, used %d)", i, eng.Len(), len(m.resident), bytes, m.used)
		}
		if _, ok := m.resident[s.req.Key]; eng.Contains(s.req.Key) != ok {
			t.Fatalf("step %d: Contains(%d) = %v, model %v", i, s.req.Key, !ok, ok)
		}

		if st.Hits+st.Admissions+st.Rejections != st.Requests+fills {
			t.Fatalf("step %d: hits %d + admissions %d + rejections %d != requests %d + storing sets %d",
				i, st.Hits, st.Admissions, st.Rejections, st.Requests, fills)
		}
		if st.Admissions-st.Evictions != int64(eng.Len()) {
			t.Fatalf("step %d: admissions %d - evictions %d != %d resident objects", i, st.Admissions, st.Evictions, eng.Len())
		}
		var rejects, byReason int64
		for _, co := range cobs {
			rejects += co.Rejections.Load()
			for r := range co.Rejects {
				byReason += co.Rejects[r].Load()
			}
		}
		if byReason != st.Rejections || rejects != st.Rejections {
			t.Fatalf("step %d: per-reason rejects sum to %d, counter %d, stats %d", i, byReason, rejects, st.Rejections)
		}
	}
	var policyRejects int64
	for _, co := range cobs {
		policyRejects += co.Rejects[cache.RejectPolicy-1].Load()
	}
	return m.st, policyRejects
}

// TestEngineModel is the engine's reference-model test: every
// registered policy — plain, and behind the admission front — at 1 and
// 4 shards, through a seeded random mix of lookups and stores.
func TestEngineModel(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 120, Requests: 2400, Interarrival: trace.Pareto, VariableSizes: true, Seed: 3,
	})
	tr.AnnotateNext() // the Belady variants read Request.Next
	g := stats.NewRNG(21)
	steps := make([]step, tr.Len())
	for i, req := range tr.Reqs {
		steps[i].req = req
		if g.Intn(5) == 0 {
			steps[i].set = true
			if g.Intn(2) == 0 {
				steps[i].req.Size += 1 + int64(g.Intn(9)) // a SET may change the size
			}
		}
	}
	capacity := tr.UniqueBytes() / 6
	var policyRejects int64
	for _, name := range Names() {
		for _, front := range []bool{false, true} {
			o := modelOptions(name, front, capacity, tr.Duration())
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/admit=%s/shards=%d", name, o.Admission.Mode, shards), func(t *testing.T) {
					st, rejects := runModel(t, name, o, shards, steps)
					policyRejects += rejects
					if st.Evictions == 0 {
						t.Errorf("no evictions: the fixture does not press %s", name)
					}
				})
			}
		}
	}
	// The identities are vacuous for a path the fixture never takes.
	if policyRejects == 0 {
		t.Error("no policy-reason rejects: the ported admitters were never exercised")
	}
}

// FuzzEngineModel feeds the lockstep driver operation sequences decoded
// from the fuzzer's bytes: two bytes an operation — a key in [0, 64)
// with its high bits choosing lookup, store or resizing store, and the
// ticks since the previous operation. sel picks the policy, the
// admission front and the shard count.
func FuzzEngineModel(f *testing.F) {
	names := Names()
	churn := make([]byte, 0, 600)
	g := stats.NewRNG(5)
	for i := 0; i < 300; i++ {
		churn = append(churn, byte(g.Intn(256)), byte(g.Intn(8)))
	}
	for sel := 0; sel < 4*len(names); sel += 3 {
		f.Add(uint16(sel), churn)
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{1, 1, 1, 1, 0x41, 1, 0x81, 1, 0xc1, 1, 1, 0})
	// Shapes the random churn rarely produces: every operation a
	// resizing store, a one-pass scan of all 64 keys, and one hot key
	// interleaved with a scan.
	var resize, scan, hot []byte
	for k := 0; k < 64; k++ {
		resize = append(resize, 0xc0|byte(k%24), 1)
		scan = append(scan, 0x80|byte(k), 1)
		hot = append(hot, 0x80, 0, 0x80|byte(k), 1)
	}
	f.Add(uint16(2), resize)
	f.Add(uint16(3), scan)
	f.Add(uint16(6), hot)

	f.Fuzz(func(t *testing.T, sel uint16, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		tr := &trace.Trace{Name: "fuzz"}
		sets := make([]byte, 0, len(data)/2)
		now := int64(1) // Belady reads Next == 0 as "not annotated"
		for i := 0; i+1 < len(data); i += 2 {
			now += int64(data[i+1])
			key := cache.Key(data[i] & 63)
			tr.Reqs = append(tr.Reqs, cache.Request{Time: now, Key: key, Size: 1 + int64(key)%7})
			sets = append(sets, data[i]>>6)
		}
		tr.AnnotateNext()
		steps := make([]step, tr.Len())
		for i, req := range tr.Reqs {
			steps[i] = step{req: req, set: sets[i] >= 2}
			if sets[i] == 3 {
				steps[i].req.Size += 3
			}
		}
		name := names[int(sel/4)%len(names)]
		o := modelOptions(name, sel&1 != 0, 40, now)
		shards := 1
		if sel&2 != 0 {
			shards = 4
		}
		runModel(t, name, o, shards, steps)
	})
}
