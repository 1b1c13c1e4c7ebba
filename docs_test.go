package homework

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	// docCode is a backticked span of prose.
	docCode = regexp.MustCompile("`[^`\n]+`")
	// docGoBlock is a fenced Go block of prose.
	docGoBlock = regexp.MustCompile("(?s)```go\n(.*?)```")
	// docQualified is a package-qualified name, pkg.Name or
	// pkg.Type.Member, that does not continue a longer selector or path.
	docQualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Z]\w*)?)`)
)

// internalPackages parses the non-test Go files under internal/ and
// returns them by package name; no two packages there share a name.
func internalPackages(t *testing.T) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[f.Name.Name] = append(pkgs[f.Name.Name], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// declaredNames lists what a package declares as a doc may name it:
// every top-level type, function, const and var as Name, and every
// method, struct field and interface method as Type.Member.
func declaredNames(files []*ast.File) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						for _, m := range members(spec.Type) {
							names[spec.Name.Name+"."+m] = true
						}
					}
				}
			}
		}
	}
	return names
}

// members names a struct type's fields, embedded ones by their type
// name, or an interface type's methods.
func members(typ ast.Expr) []string {
	var list *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		list = typ.Fields
	case *ast.InterfaceType:
		list = typ.Methods
	default:
		return nil
	}
	var out []string
	for _, field := range list.List {
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
		if len(field.Names) == 0 {
			embedded := field.Type
			if star, ok := embedded.(*ast.StarExpr); ok {
				embedded = star.X
			}
			if sel, ok := embedded.(*ast.SelectorExpr); ok {
				embedded = sel.Sel
			}
			if id, ok := embedded.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
		}
	}
	return out
}

// TestDocsNameWhatExists reads README.md and docs/*.md and fails on every
// Test, Benchmark or Fuzz name that no Go file in the tree declares, on
// every internal/ path that does not exist, and on every pkg.Name or
// pkg.Type.Member, in backticks or in a fenced Go block, that pkg does not
// declare, pkg a package under internal/ or the homework facade: a written
// contract that names its evidence must name evidence that is there, and a
// snippet must name what the facade still declares. bench/README.md is not
// read.
func TestDocsNameWhatExists(t *testing.T) {
	declared := map[string]map[string]bool{}
	for pkg, files := range internalPackages(t) {
		declared[pkg] = declaredNames(files)
	}
	facade, err := parser.ParseFile(token.NewFileSet(), "homework.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared["homework"] = declaredNames([]*ast.File{facade})
	funcs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		code := docCode.FindAllString(string(text), -1)
		for _, block := range docGoBlock.FindAllStringSubmatch(string(text), -1) {
			code = append(code, strings.Split(block[1], "\n")...)
		}
		for _, code := range code {
			for _, m := range docQualified.FindAllStringSubmatch(code, -1) {
				if names, ok := declared[m[1]]; ok && !names[m[2]] {
					missing[m[1]+"."+m[2]] = true
				}
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
