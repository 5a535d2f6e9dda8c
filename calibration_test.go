package es2

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// calibrationStructs names, by package directory, the structs whose
// fields are the model's calibration constants.
var calibrationStructs = map[string]string{
	"internal/vmm":   "CostModel",
	"internal/guest": "Costs",
	"internal/vhost": "Params",
	"internal/sched": "Params",
}

// TestCalibrationConstantsAreRead parses the module's non-test Go files
// (bench/, a module of its own, excluded) and requires every field of
// the calibration structs to appear in some selector expression. A
// field that is only set in its struct's literal prices nothing, and a
// sweep over the constants would report it as insensitive instead of
// dead. The check goes by field name, which is enough while none of
// these names is used as a selector on any other type.
func TestCalibrationConstantsAreRead(t *testing.T) {
	type field struct{ owner, name string }
	var fields []field
	selected := map[string]bool{}
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		want := calibrationStructs[dir]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || want == "" || n.Name.Name != want {
					break
				}
				found[dir] = true
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						fields = append(fields, field{f.Name.Name + "." + want, name.Name})
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, name := range calibrationStructs {
		if !found[dir] {
			t.Errorf("struct %s not found in %s", name, dir)
		}
	}
	var dead []string
	for _, f := range fields {
		if !selected[f.name] {
			dead = append(dead, f.owner+"."+f.name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("calibration constants that no code reads: %s", strings.Join(dead, ", "))
	}
}
