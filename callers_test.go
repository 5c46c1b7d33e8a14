package tkplq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptForTests names the functions under internal/ and cmd/ that only tests
// call, each with the reason it stays.
var keptForTests = map[string]string{
	"NewReplicated":    "cluster: programmatic twin of a replica-set topology file; tests build fixtures with it",
	"waiterCount":      "core: lets the coalescer tests wait until every caller has joined a flight",
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
	productionFiles(t, fset, func(dir string, f *ast.File) {
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
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
	})
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

// productionFiles parses every non-test Go file of the tree, bench/e2e and
// examples included, and hands each to fn with its slash-separated directory
// ("." for the root package).
func productionFiles(t *testing.T, fset *token.FileSet, fn func(dir string, f *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// optionsKeptForTests names the exported fields of option structs that no
// production code sets, each with the reason it stays.
var optionsKeptForTests = map[string]string{
	"internal/core.Options.StrictPaths":         "the paper's exact path semantics, the reference the cut walk is held to",
	"internal/repl.FollowerConfig.Client":       "the transport seam of the seeded cluster simulator (ROADMAP 3a)",
	"internal/repl.FollowerConfig.Retry":        "a timing knob only tests shorten",
	"internal/repl.FollowerConfig.StallTimeout": "a timing knob only tests shorten",
	"internal/server.Config.Retry":              "a timing knob only tests shorten",
	"internal/server.Config.SSEHeartbeat":       "a timing knob only tests shorten",
	"internal/retry.Policy.Base":                "a timing knob only tests shorten",
	"internal/retry.Policy.Cap":                 "a timing knob only tests shorten",
	"internal/retry.Policy.Attempts":            "a timing knob only tests shorten",
}

// typeName is a named type: the directory of its package and its name.
type typeName struct{ dir, name string }

// TestEveryOptionHasAProductionSetter lists every exported field of a struct
// type named *Options, *Config or *Policy, declared in the root package,
// internal/ or cmd/, that no non-test file sets. A field is set by a key in a
// composite literal of its type (or of a root alias of it), or by an
// assignment x.Field = … in another package than the type's: a constructor
// defaulting its own config sets nothing. Assignments match field names, not
// types, so a name collision can hide an unset field; literals match types.
// bench/e2e and examples count as setters.
func TestEveryOptionHasAProductionSetter(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir     string
		f       *ast.File
		imports map[string]string // import name -> package directory
	}
	var files []file
	productionFiles(t, fset, func(dir string, f *ast.File) {
		imports := map[string]string{}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			dir, ok := strings.CutPrefix(p, "tkplq/")
			if p == "tkplq" {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = dir
		}
		files = append(files, file{dir, f, imports})
	})
	resolve := func(fl file, e ast.Expr) typeName {
		switch e := e.(type) {
		case *ast.Ident:
			return typeName{fl.dir, e.Name}
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && fl.imports[x.Name] != "" {
				return typeName{fl.imports[x.Name], e.Sel.Name}
			}
		}
		return typeName{}
	}

	// The option structs and their fields, and the root package's aliases.
	declared := map[string]string{}   // "dir.Type.Field" -> declaring position
	declaredIn := map[string]string{} // "dir.Type.Field" -> dir
	byField := map[string][]string{}  // field name -> its keys in declared
	aliases := map[string]typeName{}
	for _, fl := range files {
		checked := fl.dir == "." || strings.HasPrefix(fl.dir, "internal/") || strings.HasPrefix(fl.dir, "cmd/")
		for _, decl := range fl.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Assign.IsValid() && fl.dir == "." {
					aliases[ts.Name.Name] = resolve(fl, ts.Type)
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !checked || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")) {
					continue
				}
				for _, fd := range st.Fields.List {
					for _, id := range fd.Names {
						if id.IsExported() {
							key := fl.dir + "." + name + "." + id.Name
							declared[key], declaredIn[key] = fset.Position(id.Pos()).String(), fl.dir
							byField[id.Name] = append(byField[id.Name], key)
						}
					}
				}
			}
		}
	}

	set := map[string]bool{}
	for _, fl := range files {
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tn := resolve(fl, n.Type)
				if a, ok := aliases[tn.name]; ok && tn.dir == "." {
					tn = a
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[tn.dir+"."+tn.name+"."+id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						for _, key := range byField[sel.Sel.Name] {
							if declaredIn[key] != fl.dir {
								set[key] = true
							}
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	for key, pos := range declared {
		if !set[key] && optionsKeptForTests[key] == "" {
			unset = append(unset, pos+": "+key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no production setter: %s", u)
	}
	for key := range optionsKeptForTests {
		if _, ok := declared[key]; !ok {
			t.Errorf("optionsKeptForTests names %s, which is no longer an exported option field", key)
		} else if set[key] {
			t.Errorf("optionsKeptForTests names %s, which now has a production setter", key)
		}
	}
}
