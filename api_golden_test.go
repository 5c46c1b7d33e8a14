package tkplq_test

// The public-API golden test: a snapshot of every exported declaration of
// package tkplq lives in testdata/api.txt, and this test fails when the
// surface drifts — so a PR can never silently break the facade. Most of the
// facade is type aliases into internal packages, which a syntactic snapshot
// shows as one line each, so the package is also type-checked (standard
// library only) and every exported type — aliases included — lists its
// exported fields and the exported methods of *T. After an intentional
// change, regenerate with:
//
//	go test -run TestPublicAPIGolden . -update-api
//
// (wired into CI as `make apicheck`).

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt with the current public API")

const apiGoldenPath = "testdata/api.txt"

func TestPublicAPIGolden(t *testing.T) {
	got, err := publicAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	current := strings.Join(got, "\n") + "\n"

	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(current), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d declarations", apiGoldenPath, len(got))
		return
	}

	wantBytes, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("%v — run `go test -run TestPublicAPIGolden . -update-api` to create the snapshot", err)
	}
	want := strings.Split(strings.TrimRight(string(wantBytes), "\n"), "\n")

	wantSet := make(map[string]bool, len(want))
	for _, line := range want {
		wantSet[line] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, line := range got {
		gotSet[line] = true
	}
	var missing, added []string
	for _, line := range want {
		if !gotSet[line] {
			missing = append(missing, line)
		}
	}
	for _, line := range got {
		if !wantSet[line] {
			added = append(added, line)
		}
	}
	if len(missing) == 0 && len(added) == 0 {
		return
	}
	var sb strings.Builder
	sb.WriteString("public API drifted from testdata/api.txt:\n")
	for _, line := range missing {
		fmt.Fprintf(&sb, "  removed/changed: %s\n", line)
	}
	for _, line := range added {
		fmt.Fprintf(&sb, "  added/changed:   %s\n", line)
	}
	sb.WriteString("if intentional, regenerate with: go test -run TestPublicAPIGolden . -update-api")
	t.Fatal(sb.String())
}

var spaceRun = regexp.MustCompile(`\s+`)

// publicAPI renders every exported top-level declaration of the package in
// dir as one normalized line each, plus the resolved members of every
// exported type, sorted.
func publicAPI(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	pkg, ok := pkgs["tkplq"]
	if !ok {
		return nil, fmt.Errorf("package tkplq not found in %s", dir)
	}

	render := func(node any) (string, error) {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			return "", err
		}
		return spaceRun.ReplaceAllString(buf.String(), " "), nil
	}

	// Type-check first: the syntactic pass below strips bodies and comments
	// from the same syntax trees.
	lines, err := typeMembers(fset, pkg)
	if err != nil {
		return nil, err
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue
				}
				d.Doc = nil
				d.Body = nil
				line, err := render(d)
				if err != nil {
					return nil, err
				}
				lines = append(lines, line)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						sp.Doc, sp.Comment = nil, nil
						// Struct and interface types snapshot their full
						// exported shape; other types (aliases included)
						// snapshot the definition.
						if st, ok := sp.Type.(*ast.StructType); ok {
							stripUnexportedFields(st)
						}
						line, err := render(sp)
						if err != nil {
							return nil, err
						}
						lines = append(lines, "type "+line)
					case *ast.ValueSpec:
						exported := false
						for _, name := range sp.Names {
							if name.IsExported() {
								exported = true
								break
							}
						}
						if !exported {
							continue
						}
						sp.Doc, sp.Comment = nil, nil
						kw := "var"
						if d.Tok == token.CONST {
							kw = "const"
						}
						// Render the full spec (names, type, values) so a
						// retyped or re-pointed const/var trips the gate.
						line, err := render(sp)
						if err != nil {
							return nil, err
						}
						lines = append(lines, kw+" "+line)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// typeMembers type-checks the package from source and returns, for every
// exported type name in its scope (aliases resolved), one line per exported
// struct field and one per exported method in the method set of *T — what a
// caller can actually reach through the name, wherever it is declared.
func typeMembers(fset *token.FileSet, pkg *ast.Package) ([]string, error) {
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	checked, err := conf.Check(pkg.Name, fset, files, nil)
	if err != nil {
		return nil, err
	}
	qual := func(p *types.Package) string { return p.Name() }
	var lines []string
	for _, name := range checked.Scope().Names() {
		tn, ok := checked.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					lines = append(lines, fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual)))
				}
			}
		}
		recv := tn.Type()
		if !types.IsInterface(recv) {
			recv = types.NewPointer(recv)
		}
		for ms, i := types.NewMethodSet(recv), 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				sig := strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")
				lines = append(lines, fmt.Sprintf("method (*%s) %s%s", name, m.Name(), sig))
			}
		}
	}
	return lines, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// stripUnexportedFields removes unexported fields from a struct snapshot.
func stripUnexportedFields(st *ast.StructType) {
	if st.Fields == nil {
		return
	}
	kept := st.Fields.List[:0]
	for _, f := range st.Fields.List {
		exported := len(f.Names) == 0 // embedded field: keep
		for _, n := range f.Names {
			if n.IsExported() {
				exported = true
				break
			}
		}
		if exported {
			f.Doc, f.Comment = nil, nil
			kept = append(kept, f)
		}
	}
	st.Fields.List = kept
}
