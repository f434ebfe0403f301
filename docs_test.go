package raven_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventoryPathsExist: every backticked internal/, cmd/ or
// examples/ path in DESIGN.md's "System inventory" table names
// something on disk. A glob must match at least one path.
func TestDesignInventoryPathsExist(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## System inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	pathRE := regexp.MustCompile("`((?:internal|cmd|examples)/[^`]*)`")
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range pathRE.FindAllStringSubmatch(line, -1) {
			p := m[1]
			checked++
			if strings.ContainsAny(p, "*?[") {
				if hits, _ := filepath.Glob(p); len(hits) == 0 {
					t.Errorf("inventory glob %s matches nothing", p)
				}
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("inventory path %s: %v", p, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no inventory paths found: the table's format changed")
	}
}
