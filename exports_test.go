package dias_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedExportAllowlist names the top-level exports of internal packages
// that no non-test Go file references on purpose, keyed "pkg.Name" with
// the import path's last element as pkg.
var unusedExportAllowlist = map[string]string{
	"matrix.Inverse":    "test oracle: the solve-based PH moments are checked against the explicit inverse",
	"phdist.Convolve":   "test oracle: ConvolveAll is checked bit for bit against the pairwise Convolve fold",
	"queueing.Simulate": "test oracle: the M/G/1 priority formulas are checked against a discrete-event run",

	"experiments.QuickScale":  "test-only constructor: the reduced scale tests and root benchmarks run figures at",
	"experiments.DriverNames": "test-only: tests walk every registered figure driver by name",
	"phdist.MustNew":          "test-only constructor for known-valid representations",
	"trace.Synthesize":        "test fixture: trace and workload stream tests generate their input with it",
	"simtime.Millisecond":     "unit constant tests build durations with",
	"simtime.Second":          "unit constant tests build durations with",
	"matrix.Sub":              "test helper: matrix tests check identities with it",
	"matrix.MulVec":           "test helper: matrix tests check a·x = b with it",

	// Tested primitives that lost their last caller, kept with their tests
	// until one change removes both.
	"matrix.Exp":              "no caller: PH models solve instead of exponentiating",
	"matrix.StationaryVector": "no caller: no CTMC stationary distribution is computed outside tests",
	"stats.FitLinear":         "no caller: the overhead model interpolates between two profiled points",
	"stats.MAPE":              "no caller outside tests, which score accuracy with it",
}

// TestEveryInternalExportHasACaller fails when a top-level exported func,
// type, var or const of a package under internal/ is referenced by no
// non-test Go file of the repository — benchmark/ and examples/ included —
// and is not on unusedExportAllowlist. A reference is a bare identifier
// inside the declaring package (outside the declaration itself) or a
// pkg.Name selector in a file that imports the package. Methods are out of
// scope: a method can be reached through an interface, which hides its
// callers from a syntactic search. Allowlist entries that are referenced
// after all, or no longer exist, fail the test too, so the list stays
// exact.
func TestEveryInternalExportHasACaller(t *testing.T) {
	modPath := modulePath(t)
	fset := token.NewFileSet()
	type pkgFiles struct {
		name  string
		files []*ast.File
	}
	pkgs := map[string]*pkgFiles{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join(modPath, filepath.ToSlash(filepath.Dir(p)))
		if pkgs[importPath] == nil {
			pkgs[importPath] = &pkgFiles{name: f.Name.Name}
		}
		pkgs[importPath].files = append(pkgs[importPath].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported top-level declarations of internal packages, by import path.
	declared := map[string]map[string]bool{}
	for importPath, pkg := range pkgs {
		if !strings.HasPrefix(importPath, modPath+"/internal/") {
			continue
		}
		names := map[string]bool{}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				for _, name := range declNames(decl) {
					if ast.IsExported(name) {
						names[name] = true
					}
				}
			}
		}
		declared[importPath] = names
	}

	referenced := map[string]bool{} // "importPath.Name"
	for importPath, pkg := range pkgs {
		for _, f := range pkg.files {
			imports := map[string]string{} // local name -> import path
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				local := path.Base(ip)
				if p := pkgs[ip]; p != nil {
					local = p.name
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = ip
			}
			own := declared[importPath]
			for _, decl := range f.Decls {
				self := map[string]bool{}
				for _, name := range declNames(decl) {
					self[name] = true
				}
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					self[receiverType(fd)] = true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							if ip, ok := imports[x.Name]; ok && declared[ip][n.Sel.Name] {
								referenced[ip+"."+n.Sel.Name] = true
							}
						}
						ast.Inspect(n.X, func(m ast.Node) bool { return markBare(m, own, self, importPath, referenced) })
						return false
					default:
						return markBare(n, own, self, importPath, referenced)
					}
				})
			}
		}
	}

	var unused []string
	declaredKeys := map[string]bool{}
	for importPath, names := range declared {
		for name := range names {
			key := path.Base(importPath) + "." + name
			declaredKeys[key] = true
			_, allowed := unusedExportAllowlist[key]
			switch {
			case !referenced[importPath+"."+name] && !allowed:
				unused = append(unused, key)
			case referenced[importPath+"."+name] && allowed:
				t.Errorf("allowlisted %s has a non-test caller now: drop the entry", key)
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s has no non-test caller: delete it, or add it to unusedExportAllowlist with a reason", key)
	}
	for key := range unusedExportAllowlist {
		if !declaredKeys[key] {
			t.Errorf("allowlisted %s is not declared any more: drop the entry", key)
		}
	}
}

// markBare records a bare identifier as a reference to the same
// package's export of that name, unless it names the declaration it sits
// in (recursion and a method's own receiver type do not count).
func markBare(n ast.Node, own, self map[string]bool, importPath string, referenced map[string]bool) bool {
	if id, ok := n.(*ast.Ident); ok && own[id.Name] && !self[id.Name] {
		referenced[importPath+"."+id.Name] = true
	}
	return true
}

// declNames returns the names a top-level declaration introduces at
// package scope (none for a method).
func declNames(decl ast.Decl) []string {
	var names []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names = append(names, id.Name)
				}
			}
		}
	}
	return names
}

// receiverType returns the base type name of a method's receiver.
func receiverType(fd *ast.FuncDecl) string {
	expr := fd.Recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// modulePath reads the module path from the root go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}
