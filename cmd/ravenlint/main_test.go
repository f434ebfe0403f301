package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raven/internal/lint"
)

// writeModule lays out a throwaway module under a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitStatus pins the three exit codes: 0 clean, 1 findings, and 2
// when a package does not type-check — the diagnostics are always
// printed and no rule runs on partial type info.
func TestExitStatus(t *testing.T) {
	tests := []struct {
		name       string
		src        string
		want       int
		wantStdout string
		wantStderr string
	}{
		{
			name: "clean module exits 0",
			src:  "package lib\nfunc Answer() int { return 42 }\n",
			want: 0,
		},
		{
			name:       "a finding exits 1",
			src:        "package lib\nimport \"math/rand\"\nfunc Draw() int { return rand.Intn(5) }\n",
			want:       1,
			wantStdout: "lib/lib.go:3: [rand-global] ",
		},
		{
			name:       "a type error exits 2 and is printed",
			src:        "package lib\nimport \"math/rand\"\nfunc Draw() int { _ = rand.Intn(5); return undefinedIdent }\n",
			want:       2,
			wantStderr: "ravenlint: typecheck example.com/tiny/lib: ",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{
				"go.mod":     "module example.com/tiny\n\ngo 1.22\n",
				"lib/lib.go": tt.src,
			})
			var stdout, stderr bytes.Buffer
			got := run(dir, nil, lint.DefaultRules(), &stdout, &stderr)
			if got != tt.want {
				t.Fatalf("exit status = %d, want %d\nstdout: %s\nstderr: %s", got, tt.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tt.wantStdout) {
				t.Fatalf("stdout %q does not contain %q", &stdout, tt.wantStdout)
			}
			if !strings.Contains(stderr.String(), tt.wantStderr) {
				t.Fatalf("stderr %q does not contain %q", &stderr, tt.wantStderr)
			}
			if tt.want == 2 && stdout.Len() != 0 {
				t.Fatalf("rules ran on a package that does not type-check: %s", &stdout)
			}
		})
	}
}

// TestRulesListInOneColumn: -rules prints every rule's doc starting in
// the same column, one space past the longest ID.
func TestRulesListInOneColumn(t *testing.T) {
	rules := lint.DefaultRules()
	var out bytes.Buffer
	printRules(&out, rules)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(rules) {
		t.Fatalf("%d lines for %d rules", len(lines), len(rules))
	}
	width := 0
	for _, r := range rules {
		width = max(width, len(r.ID))
	}
	for i, r := range rules {
		if col := strings.Index(lines[i], r.Doc); col != width+1 || !strings.HasPrefix(lines[i], r.ID+" ") {
			t.Errorf("line %q: the doc of %s starts in column %d, want %d", lines[i], r.ID, col, width+1)
		}
	}
}
