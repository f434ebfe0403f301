// Command ravenlint runs the repository's static-analysis rule set
// (internal/lint) over the module: the determinism, concurrency and
// library-hygiene contracts that keep the paper's replay results
// reproducible and that no compiler, vet pass, race run or runtime
// test checks (DESIGN.md "Correctness tooling"). It is stdlib-only —
// no compiled export data, no third-party loaders.
//
// Usage:
//
//	ravenlint [flags] [pattern ...]
//
// Patterns are package patterns relative to the module root ("./...",
// "./internal/sim", "./internal/policy/..."); the default is "./...".
// Findings print as "file:line: [rule-id] message" and the exit status
// is 1 when any finding is reported, 2 on usage or load errors — a
// package that fails to type-check is a load error: go build precedes
// lint, so it means the loader is wrong. Output is deterministic: two
// runs over the same tree are byte-identical.
//
// Flags:
//
//	-rules   list rule IDs and one-line docs, then exit
//
// Individual sites are suppressed with a pragma on the same line or
// the line directly above, which must name the rule and a reason:
//
//	//lint:allow <rule-id> <reason...>
//
// When the whole module is linted, pragmas that suppress nothing are
// themselves reported (pragma-stale).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"raven/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list rule IDs and their documentation, then exit")
	flag.Parse()

	rules := lint.DefaultRules()
	if *listRules {
		printRules(os.Stdout, rules)
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ravenlint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, flag.Args(), rules, os.Stdout, os.Stderr))
}

// printRules lists each rule's ID and doc, the docs in one column just
// past the longest ID.
func printRules(w io.Writer, rules []lint.Rule) {
	width := 0
	for _, r := range rules {
		width = max(width, len(r.ID))
	}
	for _, r := range rules {
		fmt.Fprintf(w, "%-*s %s\n", width, r.ID, r.Doc)
	}
}

// run lints the packages of the module enclosing dir that match
// patterns and returns the exit status.
func run(dir string, patterns []string, rules []lint.Rule, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ravenlint: %v\n", err)
		return 2
	}
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return fail(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		return fail(err)
	}
	pkgs, err := mod.Select(patterns)
	if err != nil {
		return fail(err)
	}
	typeErrs := 0
	for _, p := range pkgs {
		for _, e := range p.TypeErrs {
			fmt.Fprintf(stderr, "ravenlint: typecheck %s: %v\n", p.ImportPath, e)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		return fail(fmt.Errorf("%d type error(s): rules need a fully type-checked module", typeErrs))
	}

	// Stale-pragma detection is only sound when every package a pragma
	// could apply to was linted, i.e. the whole module was selected.
	wholeModule := len(pkgs) == len(mod.Pkgs)
	findings := lint.RunOpts(pkgs, rules, lint.Options{StalePragmas: wholeModule})
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "ravenlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
