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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the absolute directory the sources came from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
	// loader points back at the Loader that produced the package, so
	// package-scoped helpers (syncCallOf's interface-receiver fallback)
	// can reach the interprocedural call graph without every caller
	// threading a Loader through.
	loader *Loader
}

// Loader loads and type-checks packages of one module plus their
// standard-library imports, using only the standard library itself: the
// module's packages are parsed and checked recursively, stdlib imports
// are resolved by the source importer against GOROOT, so no network or
// pre-built export data is needed.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
	// funcs indexes every function declaration across loaded packages,
	// for the interprocedural call graph.
	funcs map[*types.Func]*FuncSource
	// cg caches the interprocedural call graph; cgGen records how many
	// packages were loaded when it was built, so loading further
	// packages (the fixture harness loads incrementally into one
	// Loader) invalidates the cache instead of serving stale edges.
	cg    *CallGraph
	cgGen int
}

// FuncSource ties a function object to its declaration.
type FuncSource struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader finds the module containing dir and prepares a loader for
// it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: %s/go.mod declares no module path", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: string(m[1]),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		std:        importer.ForCompiler(fset, "source", nil),
		funcs:      map[*types.Func]*FuncSource{},
	}, nil
}

// RelPath returns filename relative to the module root (slash
// separated) when possible.
func (l *Loader) RelPath(filename string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// LoadPatterns expands the command-line patterns — "./...", "./dir",
// import paths under the module — into packages, loading each exactly
// once. Directories named testdata, hidden directories and directories
// without non-test Go files are skipped by "...".
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var paths []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.walkModule()
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(d)
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(pat, "./")))
			if rel == "." {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + rel)
			}
		case pat == l.ModulePath || strings.HasPrefix(pat, l.ModulePath+"/"):
			add(pat)
		default:
			return nil, fmt.Errorf("lint: pattern %q is not under module %s (use ./... or ./dir)", pat, l.ModulePath)
		}
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkModule lists the import paths of every package directory under
// the module root.
func (l *Loader) walkModule() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(l.ModuleRoot, p)
			if err != nil {
				return err
			}
			if rel == "." {
				out = append(out, l.ModulePath)
			} else {
				out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads the module package with the given import path (and,
// transitively, everything it imports).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. It is the primitive Load uses, exposed so tests
// can load fixture packages that live outside the module's import
// graph (e.g. under testdata) with a synthetic path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour build constraints (//go:build lines, GOOS/GOARCH file
		// suffixes) under the default build context, so tag-gated
		// variants (e.g. a race/!race constant pair) don't collide as
		// duplicate declarations in one package.
		if match, err := build.Default.MatchFile(dir, name); err == nil && !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp == l.ModulePath || strings.HasPrefix(imp, l.ModulePath+"/") {
			p, err := l.Load(imp)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(imp)
	})}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = pkg
	l.indexFuncs(pkg)
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *Loader) indexFuncs(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				l.funcs[obj] = &FuncSource{Pkg: pkg, Decl: fd}
			}
		}
	}
}

// funcRef describes a resolved function reference.
type funcRef struct {
	obj     *types.Func
	pkgPath string // "" for builtins / universe scope
	name    string
	recv    types.Type // non-nil for methods
}

func funcRefOf(pkg *Package, id *ast.Ident) *funcRef {
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	ref := &funcRef{obj: obj, name: obj.Name()}
	if obj.Pkg() != nil {
		ref.pkgPath = obj.Pkg().Path()
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		ref.recv = sig.Recv().Type()
	}
	return ref
}

// isFloat reports whether t is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
