package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSrc(t *testing.T, path, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return lintFile(fset, path, f)
}

func TestSpanLeakDetected(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func leaky(sc Scope, tr *obs.Tracer) {
	span := sc.Start("work")
	span.Span.SetInt("n", 1)
	root := tr.Start(nil, "root")
	root.SetInt("n", 1)
}`)
	if len(got) != 2 {
		t.Fatalf("got %v, want span-leak for span and root", got)
	}
	for _, g := range got {
		if !strings.Contains(g, "span-leak") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
}

func TestSpanPairedVariants(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func ok(sc Scope, tr *obs.Tracer) {
	a := sc.Start("direct")
	a.End()
	b := sc.Start("deferred")
	defer b.End()
	c := sc.Start("scoped")
	defer func() { c.End() }()
	if d := sc.Start("cond"); d.Span != nil {
		defer d.End()
	}
	e := sc.StartKeyed("keyed", "k")
	e.End()
	f := tr.Start(nil, "root")
	f.End()
}`)
	if len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestSpanFieldTargetExempt(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func stash(p *P, sc Scope) {
	p.obs = sc.Start("portfolio")
}`)
	if len(got) != 0 {
		t.Fatalf("field-stored span flagged: %v", got)
	}
}

func TestNonSpanStartIgnored(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func run(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	return nil
}`)
	if len(got) != 0 {
		t.Fatalf("zero-arg Start flagged: %v", got)
	}
}

func TestFrozenCtxWriteDetected(t *testing.T) {
	src := `
package smt
func (c *Context) evil(key string, t *Term) {
	c.table[key] = t
	c.nextID++
	c.frozen = false
	c.vars["x"] = t
}`
	got := lintSrc(t, "internal/smt/bad.go", src)
	if len(got) != 4 {
		t.Fatalf("got %d findings, want 4: %v", len(got), got)
	}
	for _, g := range got {
		if !strings.Contains(g, "frozen-ctx-write") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
	// The same file outside internal/smt is not checked.
	if got := lintSrc(t, "internal/other/bad.go", src); len(got) != 0 {
		t.Fatalf("ctx check leaked outside internal/smt: %v", got)
	}
}

func TestFrozenCtxWritersAllowed(t *testing.T) {
	got := lintSrc(t, "internal/smt/term.go", `
package smt
func (c *Context) intern(key string, mk func() *Term) *Term {
	c.nextID++
	c.table[key] = mk()
	return c.table[key]
}
func (c *Context) Freeze() {
	for p := c; p != nil && !p.frozen; p = p.parent {
		p.frozen = true
	}
}`)
	if len(got) != 0 {
		t.Fatalf("whitelisted writers flagged: %v", got)
	}
}

func TestRecorderLeakDetected(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func leaky(sc obs.Scope, r *obs.Recorder) {
	h := sc.StartKeyed("work", "k")
	_ = h
	cell := r.RegisterSolver("label", 0)
	cell.Beat(1, 2, 3, 4)
	other := r.RegisterSolver("label", 1)
	other.End() // a cell closes with Close, not End
}`)
	if len(got) != 3 {
		t.Fatalf("got %v, want span-leak for h, cell and other", got)
	}
	for _, g := range got {
		if !strings.Contains(g, "span-leak") {
			t.Fatalf("unexpected finding %q", g)
		}
	}
}

func TestRecorderPairedVariants(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func ok(sc obs.Scope, r *obs.Recorder) {
	h := sc.Start("direct")
	h.End()
	g := h.StartKeyed("attrs", "k")
	defer g.End()
	cell := r.RegisterSolver("label", 0)
	defer func() { cell.Close() }()
}`)
	if len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestRecorderFieldTargetExempt(t *testing.T) {
	got := lintSrc(t, "a/b.go", `
package x
func stash(p *P, tr *obs.Tracer, r *obs.Recorder) {
	p.span = tr.Start(nil, "span")
	p.cell = r.RegisterSolver("label", 0)
}`)
	if len(got) != 0 {
		t.Fatalf("field-stored span or cell flagged: %v", got)
	}
}
