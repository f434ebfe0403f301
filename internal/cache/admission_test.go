package cache

import (
	"fmt"
	"strings"
	"testing"

	"raven/internal/obs"
	"raven/internal/stats"
)

// ---- typed seam and the front's order ----

// policyDeny is a policy with its own admission control.
type policyDeny struct {
	*testLRU
	deny bool
}

func (p *policyDeny) Admit(Request) Decision {
	if p.deny {
		return Reject(RejectPolicy)
	}
	return Accepted
}

func TestPolicyAdmitDispatch(t *testing.T) {
	// Plain policy: no admission seam at all -> accept.
	if d := PolicyAdmit(newTestLRU(), req(1, 1, 1)); !d.Admit {
		t.Errorf("plain policy rejected: %+v", d)
	}
	// A policy that is an Admitter decides, reason included.
	d := PolicyAdmit(&policyDeny{testLRU: newTestLRU(), deny: true}, req(1, 1, 1))
	if d.Admit || d.Reason != RejectPolicy {
		t.Errorf("policy deny = %+v, want reject with reason %q", d, RejectPolicy)
	}
	if d := PolicyAdmit(&policyDeny{testLRU: newTestLRU()}, req(1, 1, 1)); !d.Admit {
		t.Errorf("policy allow rejected: %+v", d)
	}
}

// fixedPredictor predicts each key's next arrival from a table; a key
// not in it has no prediction.
type fixedPredictor map[Key]int64

func (p fixedPredictor) PredictNextArrival(r Request) (int64, bool) {
	at, ok := p[r.Key]
	return at, ok
}

// doorkeeper returns a doorkeeper-mode front over a test LRU. Its
// frequency stage reads a resident count of zero until the front
// serves a cache, so it keeps its minEntries sizing.
func doorkeeper() *fronted { return Front(newTestLRU(), nil, 0).(*fronted) }

// TestFrontOrderAndUnwrap: the front's stages run in order and the
// first reject is the front's: the doorkeeper's reason wins over
// predicted reuse and the inner policy's, and predicted reuse wins over
// the inner policy's. Unwrap reaches the inner policy.
func TestFrontOrderAndUnwrap(t *testing.T) {
	inner := &policyDeny{testLRU: newTestLRU()}
	p := Front(inner, fixedPredictor{7: 1_000_000, 8: 110}, 10)
	if p.Name() != inner.Name() {
		t.Errorf("fronted name %q", p.Name())
	}
	if Unwrap(p) != Policy(inner) {
		t.Error("Unwrap did not reach the inner policy")
	}
	admit := func(now int64, k Key) Decision { return p.(Admitter).Admit(req(now, k, 10)) }
	// Warm-up: key 1 passes the doorkeeper on its second sighting and
	// fills the reuse stage's one turnover of capacity, after which its
	// lifetime estimate is the time since t = 2.
	if d := admit(1, 1); d != Reject(RejectDoorkeeper) {
		t.Fatalf("first sighting = %+v, want a doorkeeper reject", d)
	}
	if d := admit(2, 1); !d.Admit {
		t.Fatalf("second sighting during warm-up = %+v, want accept", d)
	}
	inner.deny = true
	// Key 7 returns a million ticks out, beyond any lifetime here: every
	// stage would refuse it, and the doorkeeper, first, does.
	if d := admit(100, 7); d != Reject(RejectDoorkeeper) {
		t.Errorf("first sighting of a far-future key = %+v, want the doorkeeper's reject", d)
	}
	if d := admit(101, 7); d != Reject(RejectPredictedReuse) {
		t.Errorf("far-future key past the doorkeeper = %+v, want the reuse stage's reject over the inner policy's", d)
	}
	// Key 8 returns within its lifetime: the inner policy decides.
	admit(102, 8)
	if d := admit(103, 8); d != Reject(RejectPolicy) {
		t.Errorf("near-future key = %+v, want the inner policy's reject", d)
	}
	inner.deny = false
	if d := admit(104, 8); !d.Admit {
		t.Errorf("near-future key the inner policy takes = %+v, want accept", d)
	}
	// Without a predictor there is no reuse stage: key 7 past the
	// doorkeeper goes to the inner policy.
	f := Front(inner, nil, 0)
	f.(Admitter).Admit(req(1, 7, 10))
	if d := f.(Admitter).Admit(req(2, 7, 10)); !d.Admit || f.(*fronted).reuse != nil {
		t.Errorf("doorkeeper-mode front = %+v with reuse stage %v, want accept and none", d, f.(*fronted).reuse)
	}
}

// ---- sketch admission ----

// TestSketchAdmitterSaturatedStillAdmitsHotKeys is the aging-seam
// regression test at the pipeline level: after the sketch has absorbed
// enough one-hit-wonder traffic to saturate and age several times, a
// genuinely hot key must still be admitted on its second sighting.
func TestSketchAdmitterSaturatedStillAdmitsHotKeys(t *testing.T) {
	a := &doorkeeper().freq // tiny: ages every 1024 sketch adds
	now := int64(0)
	next := func(k Key) Decision { now++; return a.Admit(req(now, k, 1)) }

	// A hammered hot key saturates its counters and, by itself, drives
	// many aging cycles (the fixed seam: saturated adds still advance
	// the aging clock).
	for i := 0; i < 4096; i++ {
		next(Key(1))
	}
	// A flood of one-hit wonders: all but a Bloom-false-positive-bounded
	// handful rejected at the doorkeeper.
	spurious := 0
	for k := Key(1000); k < 3000; k++ {
		if d := next(k); d.Admit {
			spurious++
		}
	}
	if spurious > 100 { // 5% of 2000; the doorkeeper is sized for ~1% FPs
		t.Fatalf("%d of 2000 one-hit wonders admitted", spurious)
	}
	// A fresh hot key: absorbed once, admitted on a repeat sighting.
	d1 := next(Key(5))
	if d1.Admit || d1.Reason != RejectDoorkeeper {
		t.Errorf("first sighting = %+v, want doorkeeper reject", d1)
	}
	if d2 := next(Key(5)); !d2.Admit {
		t.Errorf("hot key still rejected after saturation+aging: %+v", d2)
	}
}

// TestSketchAdmitterMatchesProbe: Admit reads the doorkeeper bit of its
// estimate off the filter's reset count instead of probing the filter
// again. A reference admitter that probes decides the same on every
// request of a stream whose doorkeeper resets both ways, each time with
// the bit deciding the outcome: on its own at capacity, inside
// AddIfMissing, and with the sketch's aging, inside the same Admit's
// sketch add.
func TestSketchAdmitterMatchesProbe(t *testing.T) {
	a, ref := &doorkeeper().freq, &doorkeeper().freq
	var selfResets, agingResets int // resets after which the bit decided
	probe := func(r Request) Decision {
		k := uint64(r.Key)
		gen := ref.door.Resets()
		seen := ref.door.AddIfMissing(k)
		self := ref.door.Resets() != gen
		gen = ref.door.Resets()
		if seen {
			ref.sk.Add(k)
		}
		aging := ref.door.Resets() != gen
		f := ref.sk.Estimate(k)
		if ref.door.Contains(k) {
			f++
		} else if f == sketchMinFreq-1 {
			selfResets += btoi(self)
			agingResets += btoi(aging)
		}
		switch {
		case f >= sketchMinFreq:
			return Accepted
		case !seen:
			return Reject(RejectDoorkeeper)
		}
		return Reject(RejectFrequency)
	}
	// 2000 keys in a doorkeeper of 1024 and a sketch aging every 1024
	// adds: both resets come often, and many keys sit at a count of one.
	g := stats.NewRNG(11)
	for i := 0; i < 200000; i++ {
		r := req(int64(i), Key(g.Intn(2000)), 1)
		if got, want := a.Admit(r), probe(r); got != want {
			t.Fatalf("request %d (key %d): %+v, the probing reference %+v", i, r.Key, got, want)
		}
	}
	if selfResets == 0 || agingResets == 0 {
		t.Errorf("the doorkeeper bit decided after %d resets at capacity and %d with aging; want both > 0", selfResets, agingResets)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---- predicted-reuse admission ----

func TestReuseAdmitterLifetimeBound(t *testing.T) {
	a := Front(newTestLRU(), fixedPredictor{7: 1000000, 8: 1010}, 100).(*fronted).reuse
	// Warm-up: before one full cache turnover of accepted bytes the
	// stage abstains, even for the far-future key.
	if d := a.Admit(req(1, 7, 50)); !d.Admit {
		t.Fatalf("abstaining stage rejected: %+v", d)
	}
	if d := a.Admit(req(500, 9, 60)); !d.Admit {
		t.Fatalf("abstaining stage rejected: %+v", d)
	}
	// 110 bytes accepted over 999 ticks: lifetime ~ 999*100/110 ~ 908.
	// Key 7's predicted arrival is ~1M ticks out -> reject; key 8
	// returns within the lifetime -> accept; unknown keys -> accept.
	if d := a.Admit(req(1000, 7, 10)); d.Admit || d.Reason != RejectPredictedReuse {
		t.Errorf("far-future key = %+v, want %q reject", d, RejectPredictedReuse)
	}
	if d := a.Admit(req(1000, 8, 10)); !d.Admit {
		t.Errorf("near-future key rejected: %+v", d)
	}
	if d := a.Admit(req(1000, 99, 10)); !d.Admit {
		t.Errorf("unpredicted key rejected: %+v", d)
	}
}

// ---- metrics reconciliation: reject reasons ----

// reconcileRejects checks the admit_rejects.<reason> rows under prefix
// in a METRICS snapshot: each names a reason of the closed set, every
// reason has exactly one, and together they sum to prefix.rejections,
// which must equal want.
func reconcileRejects(t *testing.T, kvs []obs.KV, prefix string, want int64) {
	t.Helper()
	closed := make(map[string]bool)
	for r := obs.Reason(1); int(r) <= obs.NumReasons; r++ {
		closed[r.String()] = true
	}
	seen := make(map[string]bool)
	var sum, total int64
	for _, kv := range kvs {
		if kv.Name == prefix+".rejections" {
			total = kv.Value
		}
		reason, ok := strings.CutPrefix(kv.Name, prefix+".admit_rejects.")
		if !ok {
			continue
		}
		if !closed[reason] || seen[reason] {
			t.Errorf("%s: not a reason of the closed set, or registered twice", kv.Name)
		}
		seen[reason] = true
		sum += kv.Value
	}
	if len(seen) != obs.NumReasons {
		t.Errorf("%s: %d admit_rejects rows, want %d", prefix, len(seen), obs.NumReasons)
	}
	if sum != total || total != want {
		t.Errorf("%s: sum(admit_rejects.*) = %d, rejections = %d, Stats.Rejections = %d", prefix, sum, total, want)
	}
}

// reasonLRU is a test LRU with its own admission control, which the
// engine consults through PolicyAdmit: it refuses a key for the reason
// why gives it, and takes it when why gives 0.
type reasonLRU struct {
	*testLRU
	why func(Key) obs.Reason
}

func (p *reasonLRU) Admit(r Request) Decision {
	if reason := p.why(r.Key); reason != 0 {
		return Reject(reason)
	}
	return Accepted
}

// TestRejectReasonCountersReconcile drives a cache whose policy refuses
// for given reasons and checks the per-reason counters exactly: they
// are the closed set, their sum equals Stats.Rejections, and each
// constituent reason matches the policy's decisions.
func TestRejectReasonCountersReconcile(t *testing.T) {
	r := obs.NewRegistry()
	var co obs.CacheObs
	co.Register(r, "cache")
	c := New(100, &reasonLRU{newTestLRU(), func(k Key) obs.Reason {
		return [3]obs.Reason{RejectFrequency, RejectPredictedReuse, 0}[k%3]
	}})
	c.SetShardObs(0, &co)
	for i := 0; i < 90; i++ {
		c.Handle(req(int64(i+1), Key(i), 1))
	}
	c.Handle(req(1000, 200, 101)) // oversize -> too_large

	st := c.StatsSnapshot()
	kvs := r.Snapshot()
	reconcileRejects(t, kvs, "cache", st.Rejections)
	snap := make(map[string]int64)
	for _, kv := range kvs {
		snap[kv.Name] = kv.Value
	}
	for reason, want := range map[obs.Reason]int64{
		RejectFrequency: 30, RejectPredictedReuse: 30, RejectTooLarge: 1,
	} {
		if got := snap["cache.admit_rejects."+reason.String()]; got != want {
			t.Errorf("%s rejects = %d, want %d", reason, got, want)
		}
	}
}

// TestShardedRejectCountersReconcile checks the same invariant through
// the sharded engine and the aggregated ShardedCacheObs registry rows:
// the merged rows and each shard's.
func TestShardedRejectCountersReconcile(t *testing.T) {
	r := obs.NewRegistry()
	var so obs.ShardedCacheObs
	so.Init(4)
	so.Register(r, "cache")
	s, err := NewSharded(400, 4, func(int, int64) (Policy, error) {
		return &reasonLRU{newTestLRU(), func(k Key) obs.Reason {
			return [2]obs.Reason{RejectDoorkeeper, 0}[k%2]
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.SetShardObs(i, so.Shard(i))
	}
	for i := 0; i < 200; i++ {
		s.Handle(req(int64(i+1), Key(i), 1))
	}
	st := s.StatsSnapshot()
	kvs := r.Snapshot()
	reconcileRejects(t, kvs, "cache", st.Rejections)
	for i := 0; i < 4; i++ {
		reconcileRejects(t, kvs, fmt.Sprintf("cache.shard%d", i), s.ShardStats(i).Rejections)
	}
	snap := make(map[string]int64)
	for _, kv := range kvs {
		snap[kv.Name] = kv.Value
	}
	if got := snap["cache.admit_rejects."+RejectDoorkeeper.String()]; got != st.Rejections || got != 100 {
		t.Errorf("aggregated doorkeeper rejects = %d, Rejections = %d, want 100 each",
			got, st.Rejections)
	}
}

// TestFrontedStatsStayConserved runs a randomized workload through a
// fronted cache (sketch admission) and checks engine conservation.
func TestFrontedStatsStayConserved(t *testing.T) {
	c := New(50, Front(newTestLRU(), nil, 0))
	for i := 0; i < 5000; i++ {
		k := Key(i % 97)
		c.Handle(req(int64(i+1), k, 1+int64(k%5)))
	}
	st := c.StatsSnapshot()
	if st.Hits+st.Admissions+st.Rejections != st.Requests {
		t.Errorf("conservation broken: %+v", st)
	}
	if st.Rejections == 0 || st.Admissions == 0 {
		t.Errorf("degenerate workload: %+v", st)
	}
}

// ---- the frequency front's sizing ----

// frontHeader bounds what rounding adds to the front's tables beyond its
// per-entry bytes: the doorkeeper's last word and each sketch row's.
const frontHeader = 8 + 4*8

// TestFrontSizedByResidents replays a variable-size stream through a
// fronted LRU on two shards and checks the front's memory against the
// objects each shard holds: the fronted wrapper counts exactly the
// shard's residents, the admit_bytes gauges report what each front
// holds and sum to the merged gauge, and each front holds at most 32 B
// per resident object (never fewer than minEntries) plus its rounding.
func TestFrontSizedByResidents(t *testing.T) {
	r := obs.NewRegistry()
	var so obs.ShardedCacheObs
	so.Init(2)
	so.Register(r, "cache")
	fronts := make([]*fronted, 2)
	s, err := NewSharded(4<<20, 2, func(i int, _ int64) (Policy, error) {
		fronts[i] = doorkeeper()
		return fronts[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		s.SetShardObs(i, so.Shard(i))
		if got, want := so.Shard(i).AdmitBytes.Load(), fronts[i].freq.heldBytes(); got != want {
			t.Errorf("shard %d: admit_bytes %d on attach, front holds %d", i, got, want)
		}
	}
	g := stats.NewRNG(3)
	for i := range 400000 {
		k := Key(g.Intn(60000))
		s.Handle(req(int64(i+1), k, 64+int64(k%7)*32))
	}
	snap := make(map[string]int64)
	for _, kv := range r.Snapshot() {
		snap[kv.Name] = kv.Value
	}
	var sum int64
	for i, f := range fronts {
		residents := s.shards[i].index.Len()
		if f.residents != residents {
			t.Errorf("shard %d: fronted counts %d residents, the shard holds %d", i, f.residents, residents)
		}
		held := f.freq.heldBytes()
		if got := snap[fmt.Sprintf("cache.shard%d.admit_bytes", i)]; got != held {
			t.Errorf("shard %d: admit_bytes %d, front holds %d", i, got, held)
		}
		if bound := int64(32*max(minEntries, residents) + frontHeader); held > bound {
			t.Errorf("shard %d: front holds %d B for %d residents, bound %d", i, held, residents, bound)
		}
		if f.freq.entries == minEntries {
			t.Errorf("shard %d: front never grew past %d entries with %d residents", i, minEntries, residents)
		}
		sum += held
	}
	if snap["cache.admit_bytes"] != sum {
		t.Errorf("merged admit_bytes %d, shards sum to %d", snap["cache.admit_bytes"], sum)
	}
}

// TestRefitTriggers pins which doorkeeper resets re-fit the front to the
// resident count: both — the doorkeeper's own reset at capacity and the
// one the sketch's aging drives. On the call whose reset triggers the
// rebuild the decision, doorkeeper bit included, is the one an admitter
// that never re-fits makes; and a front whose sizing already fits the
// residents keeps its tables, so its sketch halves instead of zeroing.
func TestRefitTriggers(t *testing.T) {
	fronting := func(residents int) (a, ref *SketchAdmitter) {
		f := doorkeeper()
		f.residents = residents
		return &f.freq, &doorkeeper().freq
	}
	step := func(a, ref *SketchAdmitter, now int64, k Key) (Decision, bool) {
		gen, entries := a.door.Resets(), a.entries
		got, want := a.Admit(req(now, k, 1)), ref.Admit(req(now, k, 1))
		if got != want {
			t.Fatalf("request %d (key %d): %+v, the admitter that never re-fits %+v", now, k, got, want)
		}
		if refit := a.entries != entries; refit != (a.door.Resets() > gen+1) {
			t.Fatalf("request %d: sizing %d -> %d with %d resets", now, entries, a.entries, a.door.Resets()-gen)
		}
		return got, a.entries != entries
	}

	// The doorkeeper's own reset: 16 x 64 distinct keys fill it (a few
	// more, one per false positive).
	a, ref := fronting(5000)
	for i := int64(1); ; i++ {
		_, refit := step(a, ref, i, Key(i))
		if refit {
			if i < 16*minEntries || a.entries != 5000 {
				t.Errorf("self reset re-fit at request %d to %d entries, want >= %d and 5000", i, a.entries, 16*minEntries)
			}
			break
		}
		if i > 17*minEntries {
			t.Fatal("the doorkeeper's own reset did not re-fit the front")
		}
	}

	// The aging reset: a hammered key drives the sketch to its 16 x 64th
	// increment, which lands on a key counted twice, halving it to one.
	// The doorkeeper was reset by that halving, so the bit is 0 and the
	// key is refused; an estimate that kept the bit would admit it.
	a, ref = fronting(5000)
	now := int64(0)
	next := func(k Key) (Decision, bool) { now++; return step(a, ref, now, k) }
	for range 16*minEntries - 1 { // one doorkeeper insert, then 1022 sketch adds
		if _, refit := next(1); refit {
			t.Fatal("re-fit before any reset")
		}
	}
	next(2) // doorkeeper
	if _, refit := next(2); refit {
		t.Fatal("re-fit before the sketch aged")
	}
	if d, refit := next(2); !refit || d != Reject(RejectFrequency) || a.entries != 5000 {
		t.Errorf("aging call: %+v, re-fit %v to %d entries; want a frequency reject and a re-fit to 5000", d, refit, a.entries)
	}

	// A steady cache: the sizing fits, resets come and go, nothing is
	// rebuilt.
	a, ref = fronting(70)
	sk := a.sk
	for i := int64(1); i <= 20000; i++ {
		step(a, ref, i, Key(i%3000))
	}
	if a.door.Resets() == 0 || a.sk != sk || a.entries != minEntries {
		t.Errorf("steady front: %d resets, sketch rebuilt %v, %d entries", a.door.Resets(), a.sk != sk, a.entries)
	}
}

// wrapped hides a policy behind a decorator that forwards Unwrap, as
// the simulator's timer and tracing wrappers do.
type wrapped struct{ Policy }

func (w wrapped) Unwrap() Policy { return w.Policy }

// TestAdmitBytesBehindWrapper: the engine finds the admission front by
// following Unwrap, so admit_bytes reports what a wrapped front holds.
func TestAdmitBytesBehindWrapper(t *testing.T) {
	f := Front(newTestLRU(), nil, 0).(*fronted)
	c := New(1<<20, wrapped{f})
	var co obs.CacheObs
	c.SetShardObs(0, &co)
	for i := range 20000 {
		c.Handle(req(int64(i+1), Key(i%5000), 64))
	}
	if got, want := co.AdmitBytes.Load(), f.freq.heldBytes(); got != want || want == 0 {
		t.Errorf("admit_bytes %d behind a wrapper, front holds %d", got, want)
	}
}
