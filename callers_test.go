package tkplq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests names the functions under internal/ and cmd/ that only tests
// call, each with the reason it stays.
var keptForTests = map[string]string{
	"NewReplicated":    "cluster: programmatic twin of a replica-set topology file; tests build fixtures with it",
	"waiterCount":      "core: lets the coalescer tests wait until every caller has joined a flight",
	"intraMerge":       "core: the map-based reference the dense reduction is checked against",
	"Intersection":     "geom: the oracle of the Rect.Intersects property test",
	"WriteCSV":         "iupt: the reference the streaming CSV writer is checked against",
	"WriteBinary":      "iupt: the reference the streaming binary writer is checked against",
	"ComputeStats":     "iupt: flat and partition-backed tables must agree on it; the generator tests read it",
	"Sealed":           "iupt: lets the storage tests see how many records a table has sealed",
	"HeadLen":          "iupt: lets the storage tests see how many records the head holds",
	"SequencesInRange": "iupt: the map wrappers in maps.go stay frozen while bench/e2e calls their sharded twin",
	"CheckInvariants":  "rtree: the structural invariants every bulk-load test checks",
	"IsLeaf":           "rtree: the node-shape tests walk the tree through it",
}

// stdInterfaceMethods satisfy standard-library interfaces, so their callers
// live in the standard library.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestEveryInternalFuncHasAProductionCaller lists every func and method
// declared under internal/ or cmd/ whose name no non-test file uses. It
// matches names, not types: a name collision can hide an unused function,
// but a used function is never flagged. bench/e2e and examples count as
// callers.
func TestEveryInternalFuncHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // name -> first declaring position
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		checked := strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "cmd/")
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name] = true
			name := fd.Name.Name
			if !checked || name == "main" || name == "init" || (fd.Recv != nil && stdInterfaceMethods[name]) {
				continue
			}
			if _, seen := declared[name]; !seen {
				declared[name] = fset.Position(fd.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, pos := range declared {
		if !used[name] && keptForTests[name] == "" {
			unused = append(unused, pos+": "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no production caller: %s", u)
	}
	for name := range keptForTests {
		if _, ok := declared[name]; !ok {
			t.Errorf("keptForTests names %s, which is no longer declared under internal/ or cmd/", name)
		} else if used[name] {
			t.Errorf("keptForTests names %s, which now has a production caller", name)
		}
	}
}
