package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `body` as the body of a niladic function and
// returns its CFG.
func parseBody(t *testing.T, body string) *CFG {
	t.Helper()
	src := fmt.Sprintf("package p\nfunc a()\nfunc b()\nfunc c()\nfunc d()\nfunc f() {\n%s\n}\n", body)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return NewCFG(fd.Body)
		}
	}
	t.Fatal("function f not found")
	return nil
}

// calls reports whether block node n, scanned shallowly, calls name.
func calls(n ast.Node, name string) bool {
	found := false
	walkBlockNode(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// callBlock finds the block whose nodes contain a call to name.
func callBlock(t *testing.T, g *CFG, name string) *Block {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if calls(n, name) {
				return blk
			}
		}
	}
	t.Fatalf("no block calls %s", name)
	return nil
}

// reaches reports whether `to` is reachable from `from` along edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

func TestCFGIfElse(t *testing.T) {
	g := parseBody(t, `
	if x := 1; x > 0 {
		a()
	} else {
		b()
	}
	c()`)
	aBlk, bBlk, cBlk := callBlock(t, g, "a"), callBlock(t, g, "b"), callBlock(t, g, "c")
	if aBlk == bBlk {
		t.Fatal("then and else share a block")
	}
	if reaches(aBlk, bBlk) || reaches(bBlk, aBlk) {
		t.Error("then and else arms must be mutually unreachable")
	}
	for name, blk := range map[string]*Block{"a": aBlk, "b": bBlk} {
		if !reaches(blk, cBlk) {
			t.Errorf("%s arm does not reach the join", name)
		}
	}
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable from entry")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := parseBody(t, `
	for i := 0; i < 10; i++ {
		a()
	}
	b()`)
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if !reaches(aBlk, aBlk) {
		t.Error("loop body has no back edge to itself")
	}
	if !reaches(aBlk, bBlk) {
		t.Error("loop body cannot reach the code after the loop")
	}
	if reaches(bBlk, aBlk) {
		t.Error("code after the loop reaches back into the body")
	}
}

func TestCFGForBreakContinue(t *testing.T) {
	g := parseBody(t, `
	for {
		if x() {
			break
		}
		if y() {
			continue
		}
		a()
	}
	b()`)
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if !reaches(g.Entry, bBlk) {
		t.Error("break does not reach the code after an infinite loop")
	}
	if !reaches(aBlk, aBlk) {
		t.Error("continue/back edge missing")
	}
	if reaches(bBlk, aBlk) {
		t.Error("after-loop block flows back into the loop")
	}
}

func TestCFGSwitch(t *testing.T) {
	g := parseBody(t, `
	switch v := x(); v {
	case true:
		a()
	case false:
		b()
	default:
		c()
	}
	d()`)
	aBlk, bBlk, cBlk, dBlk := callBlock(t, g, "a"), callBlock(t, g, "b"), callBlock(t, g, "c"), callBlock(t, g, "d")
	for name, blk := range map[string]*Block{"a": aBlk, "b": bBlk, "c": cBlk} {
		if !reaches(g.Entry, blk) {
			t.Errorf("case %s unreachable", name)
		}
		if !reaches(blk, dBlk) {
			t.Errorf("case %s does not reach the join", name)
		}
	}
	if reaches(aBlk, bBlk) {
		t.Error("case bodies must not fall through without a fallthrough statement")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := parseBody(t, `
	switch x() {
	case true:
		a()
		fallthrough
	case false:
		b()
	}
	c()`)
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if !reaches(aBlk, bBlk) {
		t.Error("fallthrough edge missing between consecutive cases")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	g := parseBody(t, `
	if x() {
		a()
		return
	}
	b()`)
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if reaches(aBlk, bBlk) {
		t.Error("code after return reachable from the returning arm")
	}
	if !reaches(aBlk, g.Exit) {
		t.Error("return does not reach exit")
	}
	if !reaches(bBlk, g.Exit) {
		t.Error("fall-off-the-end path does not reach exit")
	}
}

func TestCFGDefer(t *testing.T) {
	g := parseBody(t, `
	defer a()
	if x() {
		return
	}
	defer b()
	c()`)
	// Defers appear as block nodes at their registration point.
	aBlk := callBlock(t, g, "a")
	if aBlk != g.Entry {
		t.Error("first defer is not in the entry block")
	}
}

func TestCFGDeferInLoop(t *testing.T) {
	g := parseBody(t, `
	for i := 0; i < 3; i++ {
		defer a()
	}
	b()`)
	// The statement registers one deferred call per iteration at run
	// time, but syntactically it is a single defer whose block sits on
	// the loop's back-edge path.
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if !reaches(aBlk, aBlk) {
		t.Error("defer block inside the loop has no back edge")
	}
	if !reaches(aBlk, bBlk) {
		t.Error("loop body does not reach the code after the loop")
	}
}

func TestCFGDeferFunctionValue(t *testing.T) {
	g := parseBody(t, `
	f := a
	defer f()
	if x() {
		return
	}
	b()`)
	// A defer through a function or method value is still a defer
	// statement, registered on every path that continues past it.
	fBlk, bBlk := callBlock(t, g, "f"), callBlock(t, g, "b")
	if !reaches(fBlk, g.Exit) {
		t.Error("defer registration block does not reach exit")
	}
	if !reaches(fBlk, bBlk) {
		t.Error("defer registration block does not reach the fall-through path")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := parseBody(t, `
	if x() {
		panic("boom")
	}
	a()`)
	aBlk := callBlock(t, g, "a")
	panicBlk := callBlock(t, g, "panic")
	if reaches(panicBlk, aBlk) {
		t.Error("code after panic reachable from the panicking arm")
	}
	if !reaches(panicBlk, g.Exit) {
		t.Error("panic does not flow to exit")
	}
}

func TestCFGRange(t *testing.T) {
	g := parseBody(t, `
	for range x() {
		a()
	}
	b()`)
	aBlk, bBlk := callBlock(t, g, "a"), callBlock(t, g, "b")
	if !reaches(aBlk, aBlk) {
		t.Error("range body has no back edge")
	}
	if !reaches(g.Entry, bBlk) || !reaches(aBlk, bBlk) {
		t.Error("range exit edge missing")
	}
}

func TestCFGSelect(t *testing.T) {
	g := parseBody(t, `
	select {
	case <-x():
		a()
	case <-y():
		b()
	}
	c()`)
	aBlk, bBlk, cBlk := callBlock(t, g, "a"), callBlock(t, g, "b"), callBlock(t, g, "c")
	if reaches(aBlk, bBlk) || reaches(bBlk, aBlk) {
		t.Error("select clauses must be mutually unreachable")
	}
	if !reaches(aBlk, cBlk) || !reaches(bBlk, cBlk) {
		t.Error("select clauses must reach the join")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := parseBody(t, `
outer:
	for {
		for {
			if x() {
				break outer
			}
			a()
		}
	}
	b()`)
	bBlk := callBlock(t, g, "b")
	if !reaches(g.Entry, bBlk) {
		t.Error("labeled break does not escape the outer loop")
	}
}

// TestForwardSolver exercises the worklist solver with a tiny
// "has a() been called on every path" must-analysis encoded in a
// stateFact, checking join behaviour at a merge point.
func TestForwardSolver(t *testing.T) {
	g := parseBody(t, `
	if x() {
		a()
	}
	b()`)
	const (
		notCalled = 0
		called    = 1
	)
	facts := Forward(g, stateFact{}, func(n ast.Node, in Fact) Fact {
		f := in.(stateFact)
		if calls(n, "a") {
			return f.with("a", 1<<called)
		}
		return f
	})
	exitFact, ok := facts[g.Exit].(stateFact)
	if !ok {
		t.Fatal("no fact reached exit")
	}
	// One path calls a(), the other does not: the joined fact at exit
	// must admit both states.
	if !exitFact.has("a", called) {
		t.Error("exit fact lost the called state")
	}
	if exitFact["a"]&(1<<notCalled) != 0 {
		// The uncalled path never touched the key, so it contributes
		// absence, not an explicit notCalled bit; the key's mask must
		// be exactly the called bit.
		t.Errorf("exit fact mask = %b, want only the called bit", exitFact["a"])
	}
}
