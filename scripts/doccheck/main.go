// Command doccheck fails (exit 1) when an exported identifier in any of
// the listed package directories lacks a doc comment. CI runs it over
// the public documentation surface of this repository — the root aedbmls
// package, internal/radio, internal/eval and internal/experiments — so
// the guides in ARCHITECTURE.md and the godoc entry points they link to
// cannot silently rot as the code moves.
//
// Usage:
//
//	go run ./scripts/doccheck <pkgdir> [pkgdir...]
//
// Checked: exported top-level functions and methods, exported type
// specs, and exported const/var names (a doc comment on the enclosing
// group satisfies its members). Test files are ignored. A directory that
// cannot be read or parsed, or that holds no Go package, fails the check
// with its own message: a mistyped path must not pass as documented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <pkgdir> [pkgdir...]")
		os.Exit(2)
	}
	bad, failed := 0, false
	for _, dir := range os.Args[1:] {
		n, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			failed = true
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) without doc comments\n", bad)
	}
	if bad > 0 || failed {
		os.Exit(1)
	}
}

// checkDir parses one package directory and reports every exported
// identifier without documentation, returning the count. It fails when
// the directory cannot be parsed or holds no Go package.
func checkDir(dir string) (int, error) {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		return 0, fmt.Errorf("%s: cannot read package: %w", dir, err)
	}
	if len(pkgs) == 0 {
		return 0, fmt.Errorf("%s: no Go package (no non-test .go files)", dir)
	}
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), kind, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "const/var", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad, nil
}
