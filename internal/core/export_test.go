package core

// RecordsPerResident is recordsPerResident, for the sweep that chose it.
const RecordsPerResident = recordsPerResident

// SetHistoryBound sets r's record ceiling to max(perResident ×
// resident, floor) in place of max(recordsPerResident × resident,
// ghostFloor). The sweep that chose recordsPerResident
// (sweep_test.go) runs with floor 0, so that the per-resident allowance
// alone binds on traces with fewer keys than ghostFloor.
func SetHistoryBound(r *Raven, perResident, floor int) {
	r.tab.perResident, r.tab.floor = perResident, floor
}

// HistoryCeiling is the record ceiling of a table holding resident
// cached objects: max(recordsPerResident × resident, ghostFloor).
func HistoryCeiling(resident int) int { return max(recordsPerResident*resident, ghostFloor) }
