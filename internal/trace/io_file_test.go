package trace

import (
	"path/filepath"
	"testing"
)

func TestReadWriteFileGzipRoundTrip(t *testing.T) {
	tr := Synthetic(SynthConfig{Objects: 30, Requests: 500, Interarrival: Uniform, Seed: 2})
	dir := t.TempDir()
	for _, name := range []string{"plain.txt", "packed.txt.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("%s: length %d, want %d", name, got.Len(), tr.Len())
		}
		for i := range tr.Reqs {
			a, b := tr.Reqs[i], got.Reqs[i]
			if a.Time != b.Time || a.Key != b.Key || a.Size != b.Size {
				t.Fatalf("%s: request %d differs", name, i)
			}
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/path.txt"); err == nil {
		t.Error("missing file should error")
	}
}

// TestReadFileRejectsInvalidTraces checks that a trace file is held to
// Validate: a non-positive size, time running backwards and a key whose
// size changes are each rejected, plain and gzipped.
func TestReadFileRejectsInvalidTraces(t *testing.T) {
	bad := map[string]*Trace{
		"size": {Reqs: []Request{{Time: 1, Key: 1, Size: 10}, {Time: 2, Key: 2, Size: -50}}},
		"time": {Reqs: []Request{{Time: 5, Key: 1, Size: 10}, {Time: 4, Key: 2, Size: 10}}},
		"key":  {Reqs: []Request{{Time: 1, Key: 1, Size: 10}, {Time: 2, Key: 1, Size: 20}}},
	}
	dir := t.TempDir()
	for name, tr := range bad {
		for _, ext := range []string{".txt", ".txt.gz"} {
			path := filepath.Join(dir, name+ext)
			if err := WriteFile(path, tr); err != nil {
				t.Fatalf("%s: write: %v", path, err)
			}
			want := (&Trace{Name: path, Reqs: tr.Reqs}).Validate()
			if _, err := ReadFile(path); err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%s: ReadFile error %v, want %v", name+ext, err, want)
			}
		}
	}
}
