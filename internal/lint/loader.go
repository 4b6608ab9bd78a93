package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked module package.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the absolute source directory.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Pkg and Info carry go/types results. Type-check errors do not
	// abort loading (TypeErrors records them); syntactic checks still
	// run and type-driven checks degrade to best effort.
	Pkg        *types.Package
	Info       *types.Info
	TypeErrors []error
	// Listed reports whether the package was named by a load pattern
	// (checks report findings only for listed packages).
	Listed bool
}

// Program is the full load result handed to checks. One Program is
// loaded per run and shared by every selected check.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the listed packages, in deterministic import-path order.
	Pkgs []*Package
	// All additionally contains module dependencies pulled in by
	// imports, so checks can read context (units, annotations) beyond
	// the linted set.
	All []*Package
	// Loads counts packages actually parsed and type-checked (cache
	// misses) while building this program — the single-load regression
	// test pins it.
	Loads int
}

// Loader parses and type-checks module packages using only the standard
// library: module-internal imports are resolved from source under the
// module root, everything else is delegated to the compiler's source
// importer (GOROOT).
type Loader struct {
	root    string // module root (absolute)
	modPath string // module path from go.mod

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
	parsed  int                 // packages actually parsed (cache misses)
}

// NewLoader returns a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve root: %w", err)
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:    abs,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves patterns ("./...", "./internal/core", a subdirectory
// path) relative to the module root, loads every matched package plus
// its module dependencies, and returns the program.
func (l *Loader) Load(patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			dirs[d] = true
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: patterns %v matched no packages", patterns)
	}
	var listed []*Package
	for _, dir := range sortedKeys(dirs) {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkg.Listed = true
		listed = append(listed, pkg)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	all := make([]*Package, 0, len(l.pkgs))
	for _, path := range sortedPkgKeys(l.pkgs) {
		all = append(all, l.pkgs[path])
	}
	return &Program{Fset: l.fset, Pkgs: listed, All: all, Loads: l.parsed}, nil
}

// expand turns one pattern into absolute package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = l.root
		}
	}
	if pat == "./..." || pat == "..." {
		recursive = true
		pat = l.root
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.root, dir)
	}
	info, err := os.Stat(dir)
	if err != nil || !info.IsDir() {
		return nil, fmt.Errorf("lint: pattern %q: not a directory under the module root", pat)
	}
	if !recursive {
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: %s contains no Go files", dir)
		}
		return []string{dir}, nil
	}
	var dirs []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "results" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walk %s: %w", dir, err)
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() &&
			strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory under the root to its module
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside the module root %s", dir, l.root)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (cached).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg := &Package{ImportPath: path, Dir: dir, Files: files}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never fails fatally here: errors are collected so syntactic
	// checks still run over partially typed packages.
	tpkg, _ := conf.Check(path, l.fset, files, info)
	pkg.Pkg = tpkg
	pkg.Info = info
	l.pkgs[path] = pkg
	l.parsed++
	return pkg, nil
}

// loaderImporter adapts the loader to types.Importer: module-internal
// paths load from source under the root, the rest goes to the GOROOT
// source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedPkgKeys(m map[string]*Package) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
