package sim

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReferenceImportsNoRuntime keeps the simulator a pure function of
// its seed: no non-test file of the package may reach for a wall clock,
// goroutine synchronisation, the operating system or the network
// (time, sync, os, net and the packages below them, sync/atomic
// included). A Handler hosted here (an ACS session included) can then
// only observe what the scheduler delivers.
func TestReferenceImportsNoRuntime(t *testing.T) {
	forbidden := []string{"time", "sync", "os", "net"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, root := range forbidden {
				if path == root || strings.HasPrefix(path, root+"/") {
					t.Errorf("%s imports %q", name, path)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files found")
	}
}
