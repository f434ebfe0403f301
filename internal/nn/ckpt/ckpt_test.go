package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"raven/internal/nn"
)

func testNet(seed int64) *nn.Net {
	return nn.NewNet(nn.Config{Hidden: 6, MLPHidden: 8, K: 3, TimeScale: 40, Seed: seed})
}

func netBytes(t *testing.T, n *nn.Net) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadNewest(t *testing.T) {
	s := open(t, t.TempDir())
	n := testNet(1)
	path, err := s.Save(n)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != path || info.Seq != 0 || info.CorruptSkipped != 0 {
		t.Errorf("info = %+v, want path=%s seq=0 skipped=0", info, path)
	}
	if !bytes.Equal(netBytes(t, got), netBytes(t, n)) {
		t.Error("loaded net differs from saved net")
	}
}

func TestEmptyDirIsFreshStart(t *testing.T) {
	s := open(t, t.TempDir())
	n, info, err := s.LoadNewest()
	if err != nil || n != nil {
		t.Fatalf("empty dir: net=%v err=%v, want nil/nil", n != nil, err)
	}
	if info.Seq != -1 || info.CorruptSkipped != 0 {
		t.Errorf("info = %+v, want Seq=-1, no skips", info)
	}
}

func TestRotationPrunesOldGenerations(t *testing.T) {
	s := open(t, t.TempDir())
	for i := 0; i < 5; i++ {
		if _, err := s.Save(testNet(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0].Seq != 2 || gens[1].Seq != 3 || gens[2].Seq != 4 {
		t.Fatalf("generations after 5 saves: %+v, want seqs [2 3 4]", gens)
	}
	// The survivor must be the newest net.
	got, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 4 {
		t.Errorf("loaded seq %d, want 4", info.Seq)
	}
	if !bytes.Equal(netBytes(t, got), netBytes(t, testNet(4))) {
		t.Error("newest generation does not hold the last-saved net")
	}
}

// TestCorruptNewestFallsBack is the heart of the resume contract: a
// flipped byte in the newest generation must fall back to the
// previous one and report the skip.
func TestCorruptNewestFallsBack(t *testing.T) {
	s := open(t, t.TempDir())
	older := testNet(1)
	if _, err := s.Save(older); err != nil {
		t.Fatal(err)
	}
	newest, err := s.Save(testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; the CRC catches it.
	if err := FlipByte(newest, 20); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.CorruptSkipped != 1 {
		t.Errorf("info = %+v, want Seq=0 CorruptSkipped=1", info)
	}
	if !bytes.Equal(netBytes(t, got), netBytes(t, older)) {
		t.Error("fallback did not load the older generation's net")
	}
}

func TestAllCorruptIsError(t *testing.T) {
	s := open(t, t.TempDir())
	for i := 0; i < 3; i++ {
		path, err := s.Save(testNet(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := FlipByte(path, -2); err != nil {
			t.Fatal(err)
		}
	}
	n, info, err := s.LoadNewest()
	if n != nil || !errors.Is(err, nn.ErrCorrupt) {
		t.Fatalf("all-corrupt: net=%v err=%v, want nil + ErrCorrupt", n != nil, err)
	}
	if info.CorruptSkipped != 3 {
		t.Errorf("CorruptSkipped = %d, want 3", info.CorruptSkipped)
	}
}

// TestStrayTempIgnoredAndCleaned simulates a kill -9 mid-save: the
// temp file left behind must not be loaded, and the next save must
// clean it up.
func TestStrayTempIgnoredAndCleaned(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save(testNet(1)); err != nil {
		t.Fatal(err)
	}
	// A partial write that never reached rename.
	stray := filepath.Join(dir, "raven-00000009.ckpt.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.CorruptSkipped != 0 {
		t.Errorf("stray temp influenced load: %+v", info)
	}
	if _, err := s.Save(testNet(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived the next save: %v", err)
	}
}

// TestTruncatedFinalFileSkipped covers torn final files (e.g. disk
// full after a non-atomic copy by an operator): truncation is caught
// by the length check and skipped like any other corruption.
func TestTruncatedFinalFileSkipped(t *testing.T) {
	s := open(t, t.TempDir())
	if _, err := s.Save(testNet(1)); err != nil {
		t.Fatal(err)
	}
	newest, err := s.Save(testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, 10); err != nil {
		t.Fatal(err)
	}
	_, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.CorruptSkipped != 1 {
		t.Errorf("info = %+v, want Seq=0 CorruptSkipped=1", info)
	}
}

// TestReopenContinuesSequence: a new Store over an existing directory
// must continue generation numbering, not restart at zero.
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Save(testNet(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir)
	path, err := s2.Save(testNet(9))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "raven-00000003.ckpt" {
		t.Errorf("reopened store saved %s, want raven-00000003.ckpt", filepath.Base(path))
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "raven-x.ckpt", "raven--1.ckpt", "other-00000001.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir)
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 0 {
		t.Fatalf("foreign files parsed as generations: %+v", gens)
	}
	n, info, err := s.LoadNewest()
	if n != nil || err != nil || info.Seq != -1 {
		t.Errorf("foreign-only dir: net=%v err=%v info=%+v", n != nil, err, info)
	}
}

// TestForeignCellCheckpointRejected: a checkpoint a parent-commit
// build wrote for an LSTM net (../testdata, written at ebe4571) is a
// valid envelope around an architecture this build cannot hold. It must
// read as corrupt, and as the newest generation of a store it is
// skipped for the older GRU generation the same build wrote.
func TestForeignCellCheckpointRejected(t *testing.T) {
	lstm, err := os.ReadFile("../testdata/parent_lstm.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := nn.LoadCheckpoint(bytes.NewReader(lstm)); n != nil || !errors.Is(err, nn.ErrCorrupt) {
		t.Fatalf("foreign checkpoint: net=%v err=%v, want nil + ErrCorrupt", n != nil, err)
	}
	gru, err := os.ReadFile("../testdata/parent_gru.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, t.TempDir())
	for seq, data := range [][]byte{gru, lstm} {
		if err := os.WriteFile(s.genPath(seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, info, err := s.LoadNewest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.CorruptSkipped != 1 {
		t.Errorf("info = %+v, want Seq=0 CorruptSkipped=1", info)
	}
	if want := (nn.Config{Hidden: 4, MLPHidden: 6, K: 3, TimeScale: 7, Seed: 3}); got.Cfg != want {
		t.Errorf("resumed config %+v, want the GRU generation's %+v", got.Cfg, want)
	}
}
