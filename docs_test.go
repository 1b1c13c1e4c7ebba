package homework

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// docTestName is a test, benchmark or fuzz target named in prose.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	// docPath is a path under internal/ named in prose; it may end in
	// punctuation, a :line suffix or a .Identifier of the package, which are
	// trimmed.
	docPath = regexp.MustCompile(`\binternal/[a-z][\w./-]*`)
	// goIdent is a package-qualified Go identifier at the end of a path.
	goIdent = regexp.MustCompile(`\.[A-Z]\w*$`)
	// goFunc is a top-level function declaration.
	goFunc = regexp.MustCompile(`(?m)^func (\w+)\(`)
)

// TestDocsNameWhatExists reads README.md and docs/*.md and fails on every
// Test, Benchmark or Fuzz name that no Go file in the tree declares, and on
// every internal/ path that does not exist: a written contract that names
// its evidence must name evidence that is there. bench/README.md is not
// read.
func TestDocsNameWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range goFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md")
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, name := range docTestName.FindAllString(string(text), -1) {
			if !funcs[name] {
				missing[name] = true
			}
		}
		for _, p := range docPath.FindAllString(string(text), -1) {
			p, _, _ = strings.Cut(p, ":")
			p = goIdent.ReplaceAllString(strings.TrimRight(p, ".,-/"), "")
			if _, err := os.Stat(p); err != nil {
				missing[p] = true
			}
		}
		var names []string
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t.Errorf("%s names %s, which is not in the tree", doc, n)
		}
	}
}
