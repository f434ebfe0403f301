package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	ImportPath string
	RelDir     string // module-relative directory, "" for the root
	Name       string
	ModuleRoot string

	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package // best-effort; non-nil even with TypeErrs

	TypeErrs []error
}

// Module is a loaded, type-checked Go module.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // dependency order
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadModule parses and type-checks every non-test package of the
// module rooted at root, as the host's GOOS/GOARCH builds it.
//
// Module-internal imports are resolved against the packages loaded
// here (in dependency order); standard-library imports are
// type-checked from source via go/importer, so the loader works
// without compiled export data and without any third-party loader.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	mod := &Module{Root: root, Path: string(m[1]), Fset: token.NewFileSet()}

	byPath := make(map[string]*Package)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		p, err := mod.parseDir(path)
		if err != nil {
			return err
		}
		if p != nil {
			byPath[p.ImportPath] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ordered, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(mod.Fset, "source", nil)
	checked := make(map[string]*types.Package)
	for _, p := range ordered {
		p.check(std, checked)
		if p.Pkg != nil {
			checked[p.ImportPath] = p.Pkg
		}
	}
	mod.Pkgs = ordered
	return mod, nil
}

// parseDir loads the package in dir from its non-test files. Returns
// nil when dir holds no loadable Go files.
func (m *Module) parseDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	importPath := m.Path
	if rel != "" {
		importPath = m.Path + "/" + rel
	}
	p := &Package{RelDir: rel, ModuleRoot: m.Root, Fset: m.Fset, ImportPath: importPath}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only the files the host's build compiles (file-name GOOS/GOARCH
		// suffixes and //go:build lines), as go vet sees them: a function
		// written once per architecture is declared once.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		if p.Name == "" {
			p.Name = f.Name.Name
		} else if p.Name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s: multiple packages in one directory (%s, %s)", dir, p.Name, f.Name.Name)
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	return p, nil
}

// imports returns the import paths of all files in p.
func (p *Package) imports() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// topoSort orders packages so every module-internal import precedes
// its importer. Import cycles are an error.
func topoSort(byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		p, ok := byPath[path]
		if !ok {
			return nil // stdlib or external; handled by the importer
		}
		switch state[path] {
		case gray:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(stack, " -> "), path)
		case black:
			return nil
		}
		state[path] = gray
		for _, dep := range p.imports() {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the already
// checked set and delegates everything else to the stdlib source
// importer.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := mi.checked[path]; ok {
		return pkg, nil
	}
	return mi.std.Import(path)
}

// check type-checks p, recording its type errors in p.TypeErrs; ravenlint
// prints them and exits 2 rather than lint partially checked code.
func (p *Package) check(std types.Importer, checked map[string]*types.Package) {
	p.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: &moduleImporter{std: std, checked: checked},
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	pkg, err := conf.Check(p.ImportPath, p.Fset, p.Files, p.Info)
	if err != nil && len(p.TypeErrs) == 0 {
		p.TypeErrs = append(p.TypeErrs, err)
	}
	p.Pkg = pkg
}

// Select returns the packages matching the given patterns: "./..." for
// the whole module, "./dir/..." for a subtree, "./dir" for one
// package. Module-path-qualified forms ("raven/internal/...") are
// accepted too. No patterns means "./...".
func (m *Module) Select(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		rel, tree, err := m.normalizePattern(pat)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, p := range m.Pkgs {
			ok := p.RelDir == rel || (tree && (rel == "" || strings.HasPrefix(p.RelDir, rel+"/")))
			if ok && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func (m *Module) normalizePattern(pat string) (rel string, tree bool, err error) {
	orig := pat
	if pat == m.Path || strings.HasPrefix(pat, m.Path+"/") {
		pat = "." + strings.TrimPrefix(pat, m.Path)
	}
	if pat == "..." {
		pat = "./..."
	}
	if !strings.HasPrefix(pat, ".") {
		return "", false, fmt.Errorf("lint: unsupported pattern %q (use ./dir, ./dir/..., or %s/...)", orig, m.Path)
	}
	if strings.HasSuffix(pat, "/...") {
		tree = true
		pat = strings.TrimSuffix(pat, "/...")
	}
	rel = filepath.ToSlash(filepath.Clean(pat))
	if rel == "." {
		rel = ""
	}
	rel = strings.TrimPrefix(rel, "./")
	return rel, tree, nil
}
