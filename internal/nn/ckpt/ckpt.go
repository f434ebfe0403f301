// Package ckpt persists model checkpoints durably: every save writes
// a fresh generation file atomically (temp file in the same directory
// → fsync → rename → directory fsync), keeps the last three generations,
// and loads resume from the newest generation that passes the wire
// format's CRC and finite-weight validation, skipping corrupt ones.
//
// The atomic dance means a crash — including kill -9 — at any point
// of a save leaves either the complete new generation or no new file
// at all; the previously newest valid generation is never damaged.
// Stray *.tmp files from interrupted saves are ignored by loads and
// cleaned up opportunistically by the next save.
//
// This package is the only place in the repository allowed to open
// checkpoint paths for writing; the ravenlint rule ckpt-atomic-write
// enforces that no other package os.Create()s a *.ckpt path.
package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"raven/internal/nn"
)

// A store's generations are named "raven-<gen>.ckpt", and the newest
// three survive pruning.
const (
	prefix = "raven"
	keep   = 3
)

// Store manages rotated checkpoint generations in one directory.
// It is not goroutine-safe; Raven saves from its (single) training
// goroutine.
type Store struct {
	dir     string
	nextGen int
}

// Gen is one on-disk checkpoint generation.
type Gen struct {
	Seq  int
	Path string
}

// LoadInfo reports what LoadNewest did.
type LoadInfo struct {
	// Path and Seq identify the generation that loaded ("" / -1 when
	// none did).
	Path string
	Seq  int
	// CorruptSkipped counts newer generations that failed validation
	// and were skipped.
	CorruptSkipped int
}

// Open creates (or reuses) a checkpoint directory and scans existing
// generations so new saves continue the sequence.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Store{dir: dir}
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.nextGen = gens[len(gens)-1].Seq + 1
	}
	return s, nil
}

// genPath returns the final path of generation seq.
func (s *Store) genPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%08d.ckpt", prefix, seq))
}

// Generations lists on-disk generations in ascending sequence order.
// Files that do not match the "<prefix>-<seq>.ckpt" pattern (stray
// temp files, foreign files) are ignored.
func (s *Store) Generations() ([]Gen, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var gens []Gen
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := s.parseGen(e.Name())
		if !ok {
			continue
		}
		gens = append(gens, Gen{Seq: seq, Path: filepath.Join(s.dir, e.Name())})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq < gens[j].Seq })
	return gens, nil
}

// parseGen extracts the sequence number from a generation file name.
func (s *Store) parseGen(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix+"-")
	if !ok {
		return 0, false
	}
	num, ok := strings.CutSuffix(rest, ".ckpt")
	if !ok {
		return 0, false
	}
	seq, err := strconv.Atoi(num)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// Save writes n as the next generation, atomically, then prunes all
// but the newest keep generations. On any error the previous newest
// generation is untouched.
func (s *Store) Save(n *nn.Net) (string, error) {
	seq := s.nextGen
	final := s.genPath(seq)
	tmp := final + ".tmp"
	if err := writeAtomic(tmp, final, n); err != nil {
		// Best-effort cleanup of the partial temp file.
		_ = os.Remove(tmp)
		return "", err
	}
	s.nextGen = seq + 1
	s.prune()
	return final, nil
}

// writeAtomic is the temp-file→fsync→rename→dir-fsync sequence.
func writeAtomic(tmp, final string, n *nn.Net) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := n.Checkpoint(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// Durability of the rename itself. Some filesystems reject
	// directory fsync; that only weakens crash durability, never
	// atomicity, so it is best-effort.
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// prune removes all but the newest keep generations, and any stale temp
// files from interrupted saves. Best-effort: a failed remove is
// retried on the next save.
func (s *Store) prune() {
	gens, err := s.Generations()
	if err != nil {
		return
	}
	if len(gens) > keep {
		for _, g := range gens[:len(gens)-keep] {
			_ = os.Remove(g.Path)
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix+"-") && strings.HasSuffix(name, ".tmp") {
			if filepath.Join(s.dir, name) != s.genPath(s.nextGen)+".tmp" {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
		}
	}
}

// LoadNewest loads the newest generation that passes integrity and
// finite-weight validation, skipping (and counting) corrupt ones.
// With no generations on disk it returns (nil, info, nil) — a fresh
// start, not an error. When generations exist but none validates, it
// returns an error wrapping nn.ErrCorrupt.
func (s *Store) LoadNewest() (*nn.Net, LoadInfo, error) {
	info := LoadInfo{Seq: -1}
	gens, err := s.Generations()
	if err != nil {
		return nil, info, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		n, lerr := loadFile(g.Path)
		if lerr == nil {
			info.Path = g.Path
			info.Seq = g.Seq
			return n, info, nil
		}
		info.CorruptSkipped++
	}
	if len(gens) == 0 {
		return nil, info, nil
	}
	return nil, info, fmt.Errorf("ckpt: all %d generations corrupt: %w", len(gens), nn.ErrCorrupt)
}

// loadFile reads and validates one checkpoint file.
func loadFile(path string) (*nn.Net, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("ckpt: %v: %w", err, nn.ErrCorrupt)
		}
		return nil, err
	}
	defer f.Close()
	return nn.LoadCheckpoint(f)
}

// FlipByte XOR-flips every bit of the byte at offset off in path —
// the deterministic on-disk fault injection used by corruption tests
// and the verify.sh checkpoint smoke. A negative off counts from the
// end of the file.
func FlipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if off < 0 {
		off += st.Size()
	}
	if off < 0 || off >= st.Size() {
		return fmt.Errorf("ckpt: flip offset %d out of range [0,%d)", off, st.Size())
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], off)
	return err
}
