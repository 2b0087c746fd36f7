package sim

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestImportsNoExperiments walks sim's import closure within this module
// and fails if it reaches the experiment suite: the suite may build on
// sim, so sim must not depend on it.
func TestImportsNoExperiments(t *testing.T) {
	const module, banned = "jouppi/", "jouppi/internal/experiments"
	seen := map[string]bool{"jouppi/sim": true}
	queue := []string{"jouppi/sim"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		// This package is sim/, so the module root is one level up.
		dir := filepath.Join("..", filepath.FromSlash(strings.TrimPrefix(path, module)))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || seen[imp] {
				continue
			}
			if imp == banned {
				t.Fatalf("%s imports %s", path, banned)
			}
			seen[imp] = true
			queue = append(queue, imp)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("walked only %v; the walk did not follow sim's imports", seen)
	}
}
