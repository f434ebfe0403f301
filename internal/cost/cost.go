// Package cost reproduces the paper's Table 4: a simplified AWS VM
// cost comparison between cache clusters running Raven (smaller
// capacity + one GPU training server) and LRU (2–4× the capacity to
// match Raven's hit ratio). Prices are the paper's 2022 on-demand
// figures, embedded as constants; the capacity ratios come from
// measured hit-ratio curves.
package cost

// Monthly on-demand prices (USD) used by the paper (AWS, 2022).
const (
	priceT4gMicro    = 6.05   // ElastiCache t4g.micro, ~1.37 GB RAM
	priceT4gSmall    = 23.65  // ElastiCache t4g.small, ~3.09 GB
	priceT4gMedium   = 47.30  // ElastiCache t4g.medium, ~6.38 GB
	priceT3Medium    = 30.37  // EC2 t3.medium
	priceEBSPerGB    = 0.08   // gp3 per GB-month
	priceG4dn2xlarge = 950.00 // Wavelength g4dn.2xlarge (SSD-backed)
	priceG4adXlarge  = 275.00 // EC2 g4ad.xlarge GPU trainer
)

// Scenario describes one cluster comparison row of Table 4.
type Scenario struct {
	Name string
	// CapacityRatio is how much more capacity LRU needs to match
	// Raven's hit ratio (measured; the paper uses 4× in-memory, 2× CDN).
	CapacityRatio float64
	RavenMonthly  float64
	LRUMonthly    float64
}

// Savings returns Raven's relative cost reduction.
func (s Scenario) Savings() float64 {
	if s.LRUMonthly == 0 { //lint:allow float-equal exact zero baseline guards the division below
		return 0
	}
	return 1 - s.RavenMonthly/s.LRUMonthly
}

// InMemoryCluster prices the ElastiCache scenario: Raven at 32 GB of
// RAM across t4g.micro nodes plus a GPU trainer, LRU at
// ratio × 32 GB across t4g.small/medium nodes.
func InMemoryCluster(ratio float64) Scenario {
	const ravenGB = 32.0
	ravenNodes := ravenGB / 0.5 // 0.5 GB usable per t4g.micro
	raven := ravenNodes*priceT4gMicro + priceG4adXlarge

	lruGB := ravenGB * ratio
	// Split LRU capacity across small and medium nodes as the paper
	// does (41 small + 23 medium for 128 GB).
	smallNodes := lruGB * 0.32
	mediumNodes := lruGB * 0.18
	lru := smallNodes*priceT4gSmall + mediumNodes*priceT4gMedium
	return Scenario{Name: "in-memory", CapacityRatio: ratio, RavenMonthly: raven, LRUMonthly: lru}
}

// CDNClusterEBS prices the EBS-backed CDN scenario: both clusters use
// 100 t3.medium frontends; capacity costs scale with EBS size.
func CDNClusterEBS(ratio float64) Scenario {
	const ravenTB = 12.8
	base := 100 * priceT3Medium
	raven := base + ravenTB*1024*priceEBSPerGB + priceG4adXlarge
	lru := base + ravenTB*ratio*1024*priceEBSPerGB
	return Scenario{Name: "cdn-ebs", CapacityRatio: ratio, RavenMonthly: raven, LRUMonthly: lru}
}

// CDNClusterSSD prices the SSD (Wavelength) scenario: node count
// scales with capacity because SSD size is fixed per instance.
func CDNClusterSSD(ratio float64) Scenario {
	const ravenNodes = 57.0
	return Scenario{
		Name:          "cdn-ssd",
		CapacityRatio: ratio,
		RavenMonthly:  ravenNodes*priceG4dn2xlarge + priceG4adXlarge,
		LRUMonthly:    ravenNodes * ratio * priceG4dn2xlarge,
	}
}

// Table4 builds the three scenarios with the given measured capacity
// ratios (in-memory, CDN).
func Table4(inMemRatio, cdnRatio float64) []Scenario {
	return []Scenario{
		InMemoryCluster(inMemRatio),
		CDNClusterEBS(cdnRatio),
		CDNClusterSSD(cdnRatio),
	}
}
