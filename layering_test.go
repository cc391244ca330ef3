package schedfilter

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesSkipFacade keeps the layering one-way: this root
// package is the public facade over internal/, so no internal package
// may import it back. An internal import of the facade would pull every
// subsystem the facade wraps (experiments, adaptive, the interpreter)
// into binaries such as schedserved and schedgate that need none of
// them.
func TestInternalPackagesSkipFacade(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "schedfilter" {
				t.Errorf("%s imports the root schedfilter package", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
