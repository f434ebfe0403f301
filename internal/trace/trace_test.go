package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestAnnotateNext(t *testing.T) {
	tr := &Trace{Reqs: []Request{
		{Time: 1, Key: 1, Size: 1},
		{Time: 2, Key: 2, Size: 1},
		{Time: 3, Key: 1, Size: 1},
		{Time: 4, Key: 1, Size: 1},
	}}
	tr.AnnotateNext()
	want := []int64{3, NoNext, 4, NoNext}
	for i, w := range want {
		if tr.Reqs[i].Next != w {
			t.Errorf("req %d Next = %d, want %d", i, tr.Reqs[i].Next, w)
		}
	}
	if !tr.Annotated() {
		t.Error("Annotated() should be true")
	}
}

func TestSyntheticBasicInvariants(t *testing.T) {
	tr := Synthetic(SynthConfig{Objects: 100, Requests: 5000, Interarrival: Poisson, Seed: 1})
	if tr.Len() != 5000 {
		t.Fatalf("len %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.UniqueObjects() > 100 {
		t.Errorf("too many objects: %d", tr.UniqueObjects())
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SynthConfig{Objects: 50, Requests: 1000, Interarrival: Pareto, Seed: 9}
	a := Synthetic(cfg)
	b := Synthetic(cfg)
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestSyntheticZipfPopularity(t *testing.T) {
	tr := Synthetic(SynthConfig{Objects: 200, Requests: 100000, Interarrival: Poisson, ZipfAlpha: 1.0, Seed: 2})
	slope := ZipfSlope(tr)
	if slope > -0.6 || slope < -1.4 {
		t.Errorf("zipf slope %v, want roughly -1", slope)
	}
}

func TestSyntheticVariableSizesInRange(t *testing.T) {
	tr := Synthetic(SynthConfig{
		Objects: 100, Requests: 2000, Interarrival: Uniform,
		VariableSizes: true, SizeLo: 10, SizeHi: 1600, Seed: 3,
	})
	for _, r := range tr.Reqs {
		if r.Size < 10 || r.Size >= 1600 {
			t.Fatalf("size %d out of [10,1600)", r.Size)
		}
	}
}

func TestProductionPresets(t *testing.T) {
	for _, p := range AllProductionPresets {
		tr := ProductionTrace(p, 0.02, 5)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		if tr.Len() == 0 {
			t.Errorf("%s: empty trace", p)
		}
		c := Characterize(tr)
		if c.MeanSize <= 0 {
			t.Errorf("%s: bad mean size %v", p, c.MeanSize)
		}
	}
}

func TestProductionCDNSizesSpreadWiderThanTwitter(t *testing.T) {
	wiki := ProductionTrace(Wiki18, 0.05, 5)
	tw := ProductionTrace(TwitterC17, 0.05, 5)
	spread := func(tr *Trace) float64 {
		min, max := int64(math.MaxInt64), int64(0)
		for _, r := range tr.Reqs {
			if r.Size < min {
				min = r.Size
			}
			if r.Size > max {
				max = r.Size
			}
		}
		return float64(max) / float64(min)
	}
	if spread(wiki) < 100*spread(tw) {
		t.Errorf("CDN size spread %.0fx should dwarf in-memory %.0fx (Fig. 8a)",
			spread(wiki), spread(tw))
	}
}

func TestProductionOneHitWonders(t *testing.T) {
	cfg := PresetConfig(Wiki18, 0.05, 5)
	tr := Production(cfg)
	counts := make(map[Key]int)
	for _, r := range tr.Reqs {
		counts[r.Key]++
	}
	ones := 0
	for _, c := range counts {
		if c == 1 {
			ones++
		}
	}
	// The generator injects OneHitFraction of requests as singletons;
	// organic singletons add more.
	if float64(ones) < cfg.OneHitFraction*float64(tr.Len())*0.9 {
		t.Errorf("only %d one-hit wonders for %d requests (frac %.2f)",
			ones, tr.Len(), cfg.OneHitFraction)
	}
}

func TestCitiTraces(t *testing.T) {
	ts := CitiTraces(CitiConfig{Months: 3, Requests: 2000, Stations: 100, Seed: 1})
	if len(ts) != 3 {
		t.Fatalf("want 3 months, got %d", len(ts))
	}
	for _, tr := range ts {
		if err := tr.Validate(); err != nil {
			t.Error(err)
		}
		if tr.UniqueObjects() > 100 {
			t.Errorf("%s: %d stations > 100", tr.Name, tr.UniqueObjects())
		}
		for _, r := range tr.Reqs {
			if r.Size != 1 {
				t.Fatalf("citi sizes must be 1, got %d", r.Size)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		tr := Synthetic(SynthConfig{Objects: 20, Requests: 200, Interarrival: Poisson, Seed: seed})
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, tr.Name)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range tr.Reqs {
			a, b := tr.Reqs[i], got.Reqs[i]
			if a.Time != b.Time || a.Key != b.Key || a.Size != b.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVRejectsBadLines(t *testing.T) {
	for _, in := range []string{"1 2", "a 2 3", "1 b 3", "1 2 c"} {
		if _, err := ReadCSV(bytes.NewBufferString(in), "bad"); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadCSVSkipsComments(t *testing.T) {
	tr, err := ReadCSV(bytes.NewBufferString("# header\n\n1 2 3\n"), "ok")
	if err != nil || tr.Len() != 1 {
		t.Fatalf("err=%v len=%d", err, tr.Len())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []*Trace{
		{Reqs: []Request{{Time: 2, Key: 1, Size: 1}, {Time: 1, Key: 2, Size: 1}}}, // out of order
		{Reqs: []Request{{Time: 1, Key: 1, Size: 0}}},                             // zero size
		{Reqs: []Request{{Time: 1, Key: 1, Size: 5}, {Time: 2, Key: 1, Size: 6}}}, // size change
	}
	for i, tr := range bad {
		if tr.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestSliceAndDuration(t *testing.T) {
	tr := &Trace{Reqs: []Request{
		{Time: 10, Key: 1, Size: 1}, {Time: 20, Key: 2, Size: 1}, {Time: 35, Key: 3, Size: 1},
	}}
	if tr.Duration() != 25 {
		t.Errorf("duration %d", tr.Duration())
	}
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.Reqs[0].Key != 2 {
		t.Errorf("bad slice: %+v", s.Reqs)
	}
	if tr.Slice(-5, 100).Len() != 3 {
		t.Error("slice should clamp bounds")
	}
}

func TestBinWeightsSumToAtMostOne(t *testing.T) {
	tr := ProductionTrace(Wikimedia19, 0.02, 3)
	for _, bw := range []BinWeights{
		RequestsBySize(tr), BytesBySize(tr),
		RequestsByFrequency(tr), BytesByFrequency(tr),
	} {
		sum := 0.0
		for _, f := range bw.Fractions {
			if f < 0 {
				t.Fatal("negative fraction")
			}
			sum += f
		}
		if sum > 1+1e-9 {
			t.Errorf("fractions sum %v > 1", sum)
		}
		if sum < 0.5 {
			t.Errorf("fractions sum %v suspiciously small", sum)
		}
	}
}
