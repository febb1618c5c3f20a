package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEmbeddedStoreBatchOverrides guards the embedding trap of a Store that
// includes its batch methods: a struct that embeds a store and overrides
// Get, Has or Put inherits the inner store's GetBatch, HasBatch or PutBatch,
// so every batched caller silently bypasses the override.  Enforced by AST
// walk over every .go file of the module (tests included, perfbench/ aside):
// a struct embedding Store, store.Store, *MemStore or *FileStore that defines
// one of the point methods must define its batch form too.
func TestEmbeddedStoreBatchOverrides(t *testing.T) {
	type key struct{ pkg, typ string } // pkg is directory plus package name
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	embeds := map[key]token.Pos{}
	methods := map[key]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Dir(path) + ":" + file.Name.Name
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) != 1 {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					k := key{pkg, id.Name}
					if methods[k] == nil {
						methods[k] = map[string]bool{}
					}
					methods[k][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if field.Names == nil && embedsStore(field.Type, file.Name.Name == "store") {
							embeds[key{pkg, ts.Name.Name}] = field.Pos()
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(embeds) == 0 {
		t.Fatal("found no struct embedding a store; the walk is broken")
	}
	for k, pos := range embeds {
		for _, m := range []string{"Get", "Has", "Put"} {
			if methods[k][m] && !methods[k][m+"Batch"] {
				t.Errorf("%s: %s embeds a store and overrides %s but not %sBatch, so batched callers bypass the override",
					fset.Position(pos), k.typ, m, m)
			}
		}
	}
}

// embedsStore reports whether an embedded field of type e is Store, *MemStore
// or *FileStore — unqualified inside package store, store-qualified outside.
func embedsStore(e ast.Expr, inStore bool) bool {
	star, ok := e.(*ast.StarExpr)
	if ok {
		e = star.X
	}
	var name string
	switch x := e.(type) {
	case *ast.Ident:
		if !inStore {
			return false
		}
		name = x.Name
	case *ast.SelectorExpr:
		if pkg, isIdent := x.X.(*ast.Ident); !isIdent || pkg.Name != "store" {
			return false
		}
		name = x.Sel.Name
	default:
		return false
	}
	if star != nil {
		return name == "MemStore" || name == "FileStore"
	}
	return name == "Store"
}
