package lint

import (
	"go/token"
	"strings"
)

// pragmaRuleID is the pseudo-rule under which malformed suppression
// pragmas are reported.
const pragmaRuleID = "pragma-syntax"

// pragmaStaleID is the pseudo-rule under which pragmas that suppress
// nothing are reported (Options.StalePragmas): a stale pragma documents
// an invariant exception that no longer exists, and worse, would
// silently mask a future regression at that line.
const pragmaStaleID = "pragma-stale"

const pragmaPrefix = "lint:allow"

// pragma is one recorded //lint:allow site.
type pragma struct {
	rule string
	pkg  *Package
	pos  token.Pos
	used bool
}

// pragmaSet indexes pragmas by (file, line, rule) for suppression and
// keeps them in collection order for deterministic stale reporting.
type pragmaSet struct {
	byLoc map[string]map[int]map[string]*pragma
	list  []*pragma
}

func newPragmaSet() *pragmaSet {
	return &pragmaSet{byLoc: make(map[string]map[int]map[string]*pragma)}
}

// suppresses reports whether f is covered by a pragma on its own line
// or the line directly above, marking the pragma used.
func (ps *pragmaSet) suppresses(f Finding) bool {
	lines, ok := ps.byLoc[f.Pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if pr := lines[line][f.Rule]; pr != nil {
			pr.used = true
			return true
		}
	}
	return false
}

// stale returns one pragma-stale finding per pragma that never
// suppressed anything, in collection order (Run's final sort orders
// them by position).
func (ps *pragmaSet) stale() []Finding {
	var out []Finding
	for _, pr := range ps.list {
		if !pr.used {
			out = append(out, pr.pkg.finding(pragmaStaleID, pr.pos,
				"pragma suppresses no %s finding; remove it or fix the reason it was added", pr.rule))
		}
	}
	return out
}

// collect scans all comments of p for //lint:allow pragmas, recording
// well-formed ones and returning pragma-syntax findings for the rest.
// A pragma must name a rule and give a reason, so every suppression
// documents why the invariant does not apply. One whose rule ID matches
// no rule is an inert comment, neither recorded nor reported: a
// mistyped ID shows itself because the finding it meant to suppress
// still fires.
func (ps *pragmaSet) collect(p *Package, known map[string]bool) []Finding {
	var bad []Finding
	for _, f := range p.Files {
		rel := p.relFile(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, pragmaPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, pragmaPrefix))
				line := p.Fset.Position(c.Slash).Line
				switch {
				case len(fields) == 0:
					bad = append(bad, p.finding(pragmaRuleID, c.Slash,
						"pragma needs a rule ID and a reason: //lint:allow <rule-id> <reason>"))
				case !known[fields[0]]:
					// inert
				case len(fields) < 2:
					bad = append(bad, p.finding(pragmaRuleID, c.Slash,
						"pragma for %q is missing its reason", fields[0]))
				default:
					pr := &pragma{rule: fields[0], pkg: p, pos: c.Slash}
					if ps.byLoc[rel] == nil {
						ps.byLoc[rel] = make(map[int]map[string]*pragma)
					}
					if ps.byLoc[rel][line] == nil {
						ps.byLoc[rel][line] = make(map[string]*pragma)
					}
					ps.byLoc[rel][line][fields[0]] = pr
					ps.list = append(ps.list, pr)
				}
			}
		}
	}
	return bad
}
