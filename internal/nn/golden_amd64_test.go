package nn

import "testing"

// TestFitGoldenBytesGoKernels runs the pinned fits with every assembly
// kernel switched off — the Go loops other architectures run — and
// requires the hashes the assembly produces. useAVX is a constant off
// amd64, so only here can one binary run both paths.
func TestFitGoldenBytesGoKernels(t *testing.T) {
	defer func(on bool) { useAVX = on }(useAVX)
	useAVX = false
	for _, row := range goldenRows {
		if got := row.fit(t); got != row.want {
			t.Errorf("%s, Go kernels: fit bytes hash %s, want %s", row.name, got, row.want)
		}
	}
}
