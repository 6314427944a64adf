//go:build ignore

// Reach counts the functions no binary of this module links: it builds every
// cmd/ and examples/ main package with inlining off (-gcflags=all=-l, so a
// function the linker keeps shows up under its own symbol), reads the text
// symbols with `go tool nm`, and diffs them against the non-generic
// functions and methods declared in the module's non-test files. The
// linker's dead-code elimination does the reachability analysis.
//
//	go run tools/reach.go            # print the unreached count
//	go run tools/reach.go -v         # and list the functions
//	go run tools/reach.go -max 100   # fail if more than 100 are unreached
//
// Standard library only; the build tag keeps it out of ./... .
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	verbose := flag.Bool("v", false, "list the unreached functions")
	max := flag.Int("max", -1, "exit 1 when more than this many functions are unreached (-1: no limit)")
	flag.Parse()

	declared, err := declaredFuncs()
	if err != nil {
		fatal(err)
	}
	linked, err := linkedSymbols()
	if err != nil {
		fatal(err)
	}
	var unreached []string
	for _, fn := range declared {
		if !linked[fn.symbol] {
			unreached = append(unreached, fmt.Sprintf("%s\t%s", fn.pos, fn.symbol))
		}
	}
	sort.Strings(unreached)
	if *verbose {
		for _, u := range unreached {
			fmt.Println(u)
		}
	}
	fmt.Printf("reach: %d of %d non-generic functions are linked into no cmd/ or examples/ binary\n",
		len(unreached), len(declared))
	if *max >= 0 && len(unreached) > *max {
		fmt.Printf("reach: %d exceeds the baseline of %d\n", len(unreached), *max)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reach:", err)
	os.Exit(2)
}

// goList runs `go list -f format` over the patterns and returns its
// non-empty lines.
func goList(format string, pattern ...string) ([]string, error) {
	args := append([]string{"list", "-f", format}, pattern...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	var lines []string
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

type fn struct{ symbol, pos string }

// declaredFuncs returns every non-generic function and method in the
// module's non-test Go files (the files `go list` builds on this platform),
// named the way the linker names them.
func declaredFuncs() ([]fn, error) {
	pkgs, err := goList(`{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}`, "./...")
	if err != nil {
		return nil, err
	}
	wd, _ := os.Getwd()
	fset := token.NewFileSet()
	var out []fn
	for _, line := range pkgs {
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 || parts[2] == "" {
			continue
		}
		for _, name := range strings.Split(parts[2], ",") {
			path := filepath.Join(parts[1], name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "_" || d.Name.Name == "init" || d.Type.TypeParams != nil {
					continue
				}
				sym, ok := symbol(parts[0], d)
				if !ok {
					continue
				}
				rel, _ := filepath.Rel(wd, path)
				out = append(out, fn{sym, fmt.Sprintf("%s:%d", rel, fset.Position(d.Pos()).Line)})
			}
		}
	}
	return out, nil
}

// symbol is the linker's name for a declared function: pkg.F, pkg.T.M or
// pkg.(*T).M. Methods of generic types report ok = false.
func symbol(pkg string, d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkg + "." + d.Name.Name, true
	}
	typ, ptr := d.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	ident, ok := typ.(*ast.Ident)
	if !ok {
		return "", false // a generic receiver, T[P]
	}
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkg, ident.Name, d.Name.Name), true
	}
	return fmt.Sprintf("%s.%s.%s", pkg, ident.Name, d.Name.Name), true
}

// linkedSymbols builds every cmd/ and examples/ binary without inlining and
// returns the union of their text symbols. The linker names every command's
// package main, so a main.F symbol is recorded under its own binary's import
// path.
func linkedSymbols() (map[string]bool, error) {
	mains, err := goList(`{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	linked := make(map[string]bool)
	for _, pkg := range mains {
		bin := filepath.Join(dir, filepath.Base(pkg))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("building %s: %w", pkg, err)
		}
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", pkg, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			// "  addr  size T name" or "  addr T name"
			f := strings.Fields(sc.Text())
			if n := len(f); n >= 3 && f[n-2] == "T" {
				sym := f[n-1]
				if rest, ok := strings.CutPrefix(sym, "main."); ok {
					sym = pkg + "." + rest
				}
				linked[sym] = true
			}
		}
		os.Remove(bin)
	}
	return linked, nil
}
