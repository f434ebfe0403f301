// Package sim runs traces through caches and measures everything the
// paper's evaluation reports: object and byte hit ratios, per-eviction
// compute time, rank-order errors against the Belady oracle (Fig. 3 /
// Table 6), one-hit wonders (Table 8), and — through the network model
// of §5.1.4 — access latency, WAN/database traffic, and throughput
// (Fig. 10, Tables 2–3).
package sim

import "time"

// NetKind selects the deployment modelled.
type NetKind int

// Deployment kinds.
const (
	// CDN: client ↔ cache 10 ms, cache ↔ origin 100 ms, 8 Gbps links.
	CDN NetKind = iota
	// InMemory: 100 µs memory access, 10 ms database access.
	InMemory
)

// NetModel is the deterministic latency/bandwidth model of §5.1.4.
type NetModel struct {
	Kind NetKind

	ClientRTT time.Duration // CDN client↔cache round trip
	OriginRTT time.Duration // CDN cache↔origin round trip
	Bandwidth float64       // bytes/second on CDN links

	MemDelay time.Duration // in-memory hit
	DBDelay  time.Duration // in-memory miss (database fetch)

	Lookup time.Duration // per-request index lookup cost (§6.1.1: ~50 ns)
}

// CDNModel returns the paper's CDN parameters (10 ms / 100 ms / 8 Gbps).
func CDNModel() *NetModel {
	return &NetModel{
		Kind:      CDN,
		ClientRTT: 10 * time.Millisecond,
		OriginRTT: 100 * time.Millisecond,
		Bandwidth: 8e9 / 8, // 8 Gbps in bytes/sec
		Lookup:    50 * time.Nanosecond,
	}
}

// InMemoryModel returns the paper's in-memory parameters (100 µs
// memory, 10 ms database).
func InMemoryModel() *NetModel {
	return &NetModel{
		Kind:     InMemory,
		MemDelay: 100 * time.Microsecond,
		DBDelay:  10 * time.Millisecond,
		Lookup:   50 * time.Nanosecond,
	}
}

// ServiceTime returns the modelled time to serve one request of the
// given size, excluding eviction compute time (added separately from
// measured values).
func (m *NetModel) ServiceTime(hit bool, size int64) time.Duration {
	switch m.Kind {
	case CDN:
		d := m.ClientRTT + m.Lookup + m.transfer(size)
		if !hit {
			d += m.OriginRTT + m.transfer(size) // origin fetch leg
		}
		return d
	default:
		d := m.MemDelay + m.Lookup
		if !hit {
			d += m.DBDelay
		}
		return d
	}
}

func (m *NetModel) transfer(size int64) time.Duration {
	if m.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / m.Bandwidth * float64(time.Second))
}

// NetResult aggregates the model's outputs over a run.
type NetResult struct {
	AvgLatency time.Duration
	P90Latency time.Duration
	P99Latency time.Duration

	// Backend traffic: bytes fetched from origin (CDN) or rows read
	// from the database (in-memory).
	BackendBytes int64

	// Throughput over modelled (closed-loop, serial) time.
	ThroughputGbps float64
	ThroughputKRPS float64
}
