package smarteryou_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Nothing unrun: every internal/ package is imported, directly or not, by
// the facade, a command or an example, and every exported name declared in
// internal/ or in the facade is named by a non-test file of the tree (the
// benchmark/ module included) outside its own declaration. A name only
// tests use is deleted, or moved into a _test.go file when a test needs it
// as an oracle.

// unrunMethods are method names the standard library calls through an
// interface, so no file of the tree names them.
var unrunMethods = map[string]string{
	"UnmarshalJSON": "encoding/json.Unmarshaler",
}

// unrunAllowed are the exported names kept with no caller in the tree.
var unrunAllowed = map[string]string{
	"internal/ml.KRRModeDual":                   "the paper's Eq. 6 solve; BenchmarkKRRPrimalVsDual selects it",
	"internal/transport.Client.DriftState":      "operator verb; its caller is the admin surface (ROADMAP 6)",
	"internal/transport.Client.DriftStates":     "operator verb; its caller is the admin surface (ROADMAP 6)",
	"internal/transport.Client.RequestRetrain":  "operator verb; its caller is the admin surface (ROADMAP 6)",
	"internal/transport.Session.RequestRetrain": "goes when Session folds into Client (ROADMAP 4 (k))",
}

func TestNothingUnrun(t *testing.T) {
	r, err := scanUnrun(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.unreachable {
		t.Errorf("imported by no product or example package: %s", p)
	}
	for _, n := range r.dead {
		t.Errorf("exported but named by no non-test file: %s", n)
	}
	// An allowlist entry that keeps nothing is stale.
	kept := map[string]bool{}
	for _, n := range r.allowed {
		kept[n] = true
		kept[n[strings.LastIndex(n, ".")+1:]] = true // the method name
	}
	for _, allowlist := range []map[string]string{unrunAllowed, unrunMethods} {
		for n := range allowlist {
			if !kept[n] {
				t.Errorf("allowlisted but not unrun: %s", n)
			}
		}
	}
}

func TestNothingUnrunFixture(t *testing.T) {
	r, err := scanUnrun(filepath.Join("testdata", "unrun"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/orphan"}; !reflect.DeepEqual(r.unreachable, want) {
		t.Errorf("unreachable = %q, want %q", r.unreachable, want)
	}
	if want := []string{"internal/lib.Dead", "internal/lib.Thing.Unused"}; !reflect.DeepEqual(r.dead, want) {
		t.Errorf("dead = %q, want %q", r.dead, want)
	}
	if want := []string{"internal/lib.Thing.UnmarshalJSON"}; !reflect.DeepEqual(r.allowed, want) {
		t.Errorf("allowed = %q, want %q", r.allowed, want)
	}
}

type unrunReport struct {
	unreachable []string // internal/ packages no root, cmd/ or examples/ package reaches
	dead        []string // exported names no non-test file names
	allowed     []string // unnamed exported names an allowlist keeps
}

// scanUnrun parses every non-test .go file under root, skipping testdata
// and dot directories. Packages are labelled by their directory relative to
// root, the root package by the module path. Names are matched by
// spelling: a package-level name by the package that declares it, a method
// by its name alone, so a method is live when any selector names it.
func scanUnrun(root string) (unrunReport, error) {
	var r unrunReport
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return r, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	// label is the package an import path names, "" outside the module.
	label := func(importPath string) string {
		if importPath == modPath {
			return modPath
		}
		if rest, ok := strings.CutPrefix(importPath, modPath+"/"); ok {
			return rest
		}
		return ""
	}

	files := map[string][]*ast.File{} // by package label
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		pkg := modPath
		if rel != "." {
			pkg = filepath.ToSlash(rel)
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		return r, err
	}

	// Package level: a BFS over module imports from the root package,
	// cmd/... and examples/....
	seen := map[string]bool{}
	var queue []string
	for pkg := range files {
		if pkg == modPath || isUnder(pkg, "cmd") || isUnder(pkg, "examples") {
			seen[pkg] = true
			queue = append(queue, pkg)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, f := range files[pkg] {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if dep := label(ip); dep != "" && !seen[dep] {
					seen[dep] = true
					queue = append(queue, dep)
				}
			}
		}
	}
	for pkg := range files {
		if isUnder(pkg, "internal") && !seen[pkg] {
			r.unreachable = append(r.unreachable, pkg)
		}
	}
	sort.Strings(r.unreachable)

	// Name level. A use of package-level name N of package P is keyed
	// "P.N"; any other selector .N is keyed ".N", which is how methods
	// are matched.
	used := map[string]bool{}
	type decl struct{ name, use string }
	var decls []decl
	for pkg, pkgFiles := range files {
		checked := pkg == modPath || isUnder(pkg, "internal")
		for _, f := range pkgFiles {
			imports := map[string]string{} // file-local package name → label
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(ip)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = label(ip)
			}
			uses := func(n ast.Node, self string) {
				ast.Inspect(n, usesOf(pkg, imports, self, used))
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// Neither the declared name nor the receiver is a use;
					// the signature and the body are, except where the
					// function names itself.
					self, name := pkg+"."+d.Name.Name, pkg+"."+d.Name.Name
					if d.Recv != nil {
						self, name = "."+d.Name.Name, pkg+"."+recvName(d.Recv)+"."+d.Name.Name
					}
					if checked && d.Name.IsExported() {
						decls = append(decls, decl{name, self})
					}
					uses(d.Type, self)
					if d.Body != nil {
						uses(d.Body, self)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							self := pkg + "." + s.Name.Name
							if checked && s.Name.IsExported() {
								decls = append(decls, decl{self, self})
							}
							uses(s.Type, self)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if checked && n.IsExported() {
									decls = append(decls, decl{pkg + "." + n.Name, pkg + "." + n.Name})
								}
							}
							if s.Type != nil {
								uses(s.Type, "")
							}
							for _, v := range s.Values {
								uses(v, "")
							}
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		if used[d.use] {
			continue
		}
		method, isMethod := strings.CutPrefix(d.use, ".")
		if _, ok := unrunAllowed[d.name]; ok || (isMethod && unrunMethods[method] != "") {
			r.allowed = append(r.allowed, d.name)
		} else {
			r.dead = append(r.dead, d.name)
		}
	}
	sort.Strings(r.dead)
	sort.Strings(r.allowed)
	return r, nil
}

// usesOf marks what a node names, except self: a bare identifier as a
// name of pkg, a selector on an imported module package as a name of that
// package, and any selector on something other than an imported package
// as a method (or field) name.
func usesOf(pkg string, imports map[string]string, self string, used map[string]bool) func(ast.Node) bool {
	mark := func(key string) {
		if key != self {
			used[key] = true
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if dep, ok := imports[x.Name]; ok {
					if dep != "" {
						mark(dep + "." + n.Sel.Name)
					}
					return false
				}
			}
			mark("." + n.Sel.Name)
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			mark(pkg + "." + n.Name)
		}
		return true
	}
	return visit
}

// recvName is the type name of a method's receiver, without pointer or
// type parameters.
func recvName(fl *ast.FieldList) string {
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func isUnder(pkg, top string) bool {
	return pkg == top || strings.HasPrefix(pkg, top+"/")
}
