package waitornot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"waitornot/internal/testutil"
)

// TestPublicAPI pins the package's exported surface: every exported
// top-level func, type, method, const and var, one per line, sorted.
// A new or removed entry point shows up as a diff of
// testdata/api.golden (accept it with -update).
func TestPublicAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var api []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			api = append(api, exportedNames(decl)...)
		}
	}
	sort.Strings(api)
	testutil.GoldenFile(t, "testdata/api.golden", []byte(strings.Join(api, "\n")+"\n"))
}

// exportedNames lists the exported identifiers one declaration
// introduces, each prefixed with its kind.
func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			return []string{"func " + d.Name.Name}
		}
		recv := d.Recv.List[0].Type
		ptr := ""
		if star, ok := recv.(*ast.StarExpr); ok {
			ptr, recv = "*", star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "method ("+ptr+id.Name+") "+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}
