package fibril_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// What TestInternalExportsAreUsed lets stand without a caller.
var (
	// Names that satisfy an interface of the standard library (fmt.Stringer,
	// error, sort.Interface, container/heap.Interface): their callers are
	// behind that interface.
	interfaceMethods = []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop"}
	// Packages that exist for tests to import.
	testSupport = []string{"internal/check", "internal/cacheline/layouttest"}
	// Inspection and construction helpers tests are built on, their own
	// package's or core's: invoke.Leaf, Region.Base, Region.Resident,
	// sim.Result.Speedup and Deque.TailStores (the count
	// TestUnstolenForkStaysPrivate pins).
	testFixtures = []string{"Leaf", "Base", "Resident", "Speedup", "TailStores"}
)

// TestInternalExportsAreUsed keeps internal/ to what the program uses: every
// exported function or method declared in a non-test file under internal/ is
// named by some non-test file of the module, the benchmark included. It
// matches names, not objects, so it misses a dead Foo while a live Foo exists
// anywhere; what it catches is the export whose last caller was deleted, or
// that only its own unit test still calls. Methods of the types fibril.go
// re-exports are the public API and have their callers outside the module.
func TestInternalExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	type export struct{ pos, name string }
	var exports []export
	used := map[string]bool{}
	idents := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}
	public := aliasedTypes(t, fset)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		audited := strings.HasPrefix(dir, "internal/") && !slices.Contains(testSupport, dir)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				idents(decl)
				continue
			}
			// A declaration does not use its own name; the rest of it —
			// receiver, signature, body — uses what it names.
			if audited && fn.Name.IsExported() && !public[dir+"."+receiver(fn)] {
				exports = append(exports, export{fset.Position(fn.Pos()).String(), fn.Name.Name})
			}
			if fn.Recv != nil {
				idents(fn.Recv)
			}
			idents(fn.Type)
			if fn.Body != nil {
				idents(fn.Body)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) < 100 {
		t.Fatalf("found only %d exported funcs and methods under internal/: has the check gone blind?", len(exports))
	}
	for _, e := range exports {
		if !used[e.name] && !slices.Contains(interfaceMethods, e.name) && !slices.Contains(testFixtures, e.name) {
			t.Errorf("%s: %s is exported and no non-test file of the module names it: delete it with its test, or use it", e.pos, e.name)
		}
	}
}

// aliasedTypes returns the internal types fibril.go re-exports by alias, as
// directory.Name (type W = core.W is internal/core.W).
func aliasedTypes(t *testing.T, fset *token.FileSet) map[string]bool {
	file, err := parser.ParseFile(fset, "fibril.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					types["internal/"+pkg.Name+"."+sel.Sel.Name] = true
				}
			}
		}
		return true
	})
	if len(types) == 0 {
		t.Fatal("fibril.go aliases no internal type: has the check gone blind?")
	}
	return types
}

// receiver returns the name of a method's receiver type, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // a generic receiver, Deque[T]
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
