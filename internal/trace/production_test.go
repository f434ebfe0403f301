package trace

import (
	"math"
	"testing"
)

// productionHash is FNV-1a over every request's (Time, Key, Size), each
// as eight little-endian bytes.
func productionHash(tr *Trace) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range tr.Reqs {
		for _, v := range [3]uint64{uint64(r.Time), uint64(r.Key), uint64(r.Size)} {
			for b := 0; b < 8; b++ {
				h ^= v >> (8 * b) & 0xff
				h *= 1099511628211
			}
		}
	}
	return h
}

// TestProductionGolden pins the exact request stream Production emits,
// so a change to how it is generated (its heap, its merge of the one-hit
// wonders) must leave every byte where it was. The hashes were computed
// before either was rewritten. Besides the six presets it covers the
// benchmark's four workload shapes (benchmark/workload.go's specs at a
// twentieth of their size): one-hit wonders at 0%, 15% and 30%, and
// diurnal amplitudes 0.3 and 0.6.
func TestProductionGolden(t *testing.T) {
	kvSizes := SizeModel{Mu: math.Log(300), Sigma: 0.4, Min: 50, Max: 1400}
	bench := func(name string, objects, requests int, zipf float64, sizes SizeModel, oneHit, diurnal float64) ProductionConfig {
		return ProductionConfig{
			Name: name, Objects: objects / 20, Requests: requests / 20,
			ZipfAlpha: zipf, Sizes: sizes, DiurnalAmplitude: diurnal, Days: 2,
			OneHitFraction: oneHit, Seed: 1,
		}
	}
	cases := []struct {
		cfg  ProductionConfig
		want uint64
	}{
		{PresetConfig(Wiki18, 0.05, 1), 0x280f1aa0d1ba7e8f},
		{PresetConfig(Wiki19, 0.05, 1), 0xe6a9df1763b83a89},
		{PresetConfig(Wikimedia19, 0.05, 1), 0xd5e2adfaf7c4ff0c},
		{PresetConfig(TwitterC17, 0.05, 1), 0x6bb5f4f8242b6aa},
		{PresetConfig(TwitterC29, 0.05, 1), 0xa1ecd629ff1eacff},
		{PresetConfig(TwitterC52, 0.05, 1), 0x78fd7c583a8804ed},
		{bench("cdn_miss_heavy", 30000, 300000, 0.95,
			SizeModel{Mu: math.Log(34 << 10), Sigma: 2.0, Min: 100, Max: 50 << 20}, 0.15, 0.6), 0x1e2989ff6ea4d1ac},
		{bench("kv_hit_heavy", 100000, 1000000, 1.0, kvSizes, 0, 0.3), 0x74b03e2bb1f7a6ad},
		{bench("kv_write_churn", 120000, 1200000, 0.8,
			SizeModel{Mu: math.Log(600), Sigma: 1.2, Min: 50, Max: 64 << 10}, 0.30, 0.3), 0xe100ca3cf9f62233},
		{bench("routed_kv", 8000, 160000, 1.0, kvSizes, 0, 0.3), 0xee0b6aa8a9f57472},
	}
	for _, c := range cases {
		tr := Production(c.cfg)
		if got := productionHash(tr); got != c.want {
			t.Errorf("%s: %d requests hash to %#x, want %#x", c.cfg.Name, tr.Len(), got, c.want)
		}
	}
}
