// Command repolint is a repo-specific vet pass enforcing invariants the
// standard toolchain cannot express. It is built on the standard
// library's go/parser and go/ast only (no golang.org/x/tools
// dependency) and runs in CI next to gofmt and go vet:
//
//	repolint ./...              # lint the whole module
//	repolint internal/smt       # lint one directory tree
//
// Checks:
//
//   - span-leak: every span opened with Scope.Start/StartKeyed or
//     Tracer.Start and bound to a local variable must have a matching
//     <var>.End() call (directly, deferred, or inside a function
//     literal) in the same function, and every solver cell from
//     Recorder.RegisterSolver a matching <var>.Close(). An unended span
//     never reaches the ring or the trace and stays in the live table
//     that /debugz/spans serves; an unclosed cell reads as a stalled
//     solver to the watchdog. Openers stored into struct fields are
//     exempt — their lifecycle crosses function boundaries by design.
//
//   - frozen-ctx-write: inside internal/smt, the hash-cons state of
//     smt.Context (table, vars, nextID, frozen) may only be written by
//     the construction/intern path (NewContext, Clone, Freeze, intern,
//     Var). Any other writer would break the freeze invariant that
//     makes shared contexts safe for lock-free concurrent readers.
//
// Exit codes: 0 clean, 1 findings, 2 usage/parse errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [dir|./...] ...\n")
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	var files []string
	for _, arg := range args {
		root := strings.TrimSuffix(arg, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
	}
	sort.Strings(files)

	var findings []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, lintFile(fset, path, f)...)
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintFile runs every check over one parsed file.
func lintFile(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	out = append(out, checkSpanLeaks(fset, f)...)
	if strings.Contains(filepath.ToSlash(path), "internal/smt/") && !strings.HasSuffix(path, "_test.go") {
		out = append(out, checkFrozenCtxWrites(fset, f)...)
	}
	return out
}

// leakOpeners maps each open-resource constructor to the method that
// must release it in the same function.
var leakOpeners = map[string]string{
	"Start":          "End",
	"StartKeyed":     "End",
	"RegisterSolver": "Close",
}

// checkSpanLeaks enforces opener/closer pairing per function. A
// zero-argument Start (exec.Cmd, timers) is not a span opener.
func checkSpanLeaks(fset *token.FileSet, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		type opened struct {
			name   string
			closer string
			pos    token.Pos
		}
		var open []opened
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return true // field/index targets cross function boundaries
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if closer, ok := leakOpeners[sel.Sel.Name]; ok {
				open = append(open, opened{id.Name, closer, as.Pos()})
			}
			return true
		})
		if len(open) == 0 {
			continue
		}
		closed := map[string]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					closed[id.Name+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		for _, o := range open {
			if !closed[o.name+"."+o.closer] {
				out = append(out, fmt.Sprintf("%s: span-leak: %q opened here has no %s.%s() in this function",
					fset.Position(o.pos), o.name, o.name, o.closer))
			}
		}
	}
	return out
}

// ctxFields is the hash-cons state of smt.Context; ctxWriters are the
// only functions allowed to write it.
var (
	ctxFields  = map[string]bool{"table": true, "vars": true, "nextID": true, "frozen": true}
	ctxWriters = map[string]bool{"NewContext": true, "Clone": true, "Freeze": true, "intern": true, "Var": true}
)

// checkFrozenCtxWrites flags writes to Context's hash-cons state
// outside the construction/intern path.
func checkFrozenCtxWrites(fset *token.FileSet, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || ctxWriters[fn.Name.Name] {
			continue
		}
		report := func(pos token.Pos, field string) {
			out = append(out, fmt.Sprintf("%s: frozen-ctx-write: smt.Context.%s written outside %s",
				fset.Position(pos), field, writerList()))
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, ok := ctxFieldTarget(lhs); ok {
						report(lhs.Pos(), field)
					}
				}
			case *ast.IncDecStmt:
				if field, ok := ctxFieldTarget(n.X); ok {
					report(n.Pos(), field)
				}
			}
			return true
		})
	}
	return out
}

// ctxFieldTarget reports whether an assignment target is (an index
// into) one of Context's hash-cons fields.
func ctxFieldTarget(e ast.Expr) (string, bool) {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !ctxFields[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

func writerList() string {
	names := make([]string, 0, len(ctxWriters))
	for n := range ctxWriters {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
