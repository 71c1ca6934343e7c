package lint

// Intraprocedural control-flow graphs for the flow-sensitive analyzers
// (lockbalance, deadlock).
// Built from go/ast alone — no x/tools — so the suite keeps working in
// the offline build environment.
//
// The graph is deliberately syntactic: blocks hold the ast.Nodes they
// execute in order (statements, plus branch conditions as bare
// expressions), and edges follow Go's structured control flow — if/else
// arms, for and range loops with break/continue (labeled or not),
// switch/type-switch clauses with fallthrough, select clauses, goto,
// early returns, and panic calls. Function literals nested in the body
// are NOT descended into: each closure gets its own CFG, because its
// body runs at an unrelated time (possibly on another goroutine).
//
// Defer statements appear as ordinary nodes at their registration
// point; their calls conceptually run on every path that exits after
// registration, and lockbalance folds them into its transfer function.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a straight-line sequence of nodes with
// branching only between blocks. Nodes are statements in execution
// order; branch conditions appear as bare ast.Expr nodes.
type Block struct {
	ID    int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Entry has no
// predecessors; Exit collects every return, panic, and fall-off-the-end
// path and holds no nodes of its own.
type CFG struct {
	Entry, Exit *Block
	// Blocks lists every block in creation (source) order; IDs index it.
	Blocks []*Block
}

// NewCFG builds the control-flow graph of a function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: map[string]*Block{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.g.Exit)
	for _, fix := range b.gotos {
		if target, ok := b.labels[fix.label]; ok {
			b.edge(fix.from, target)
		}
	}
	return b.g
}

// frame is one enclosing breakable construct (loop, switch, select).
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block
	frames []frame
	labels map[string]*Block
	gotos  []struct {
		label string
		from  *Block
	}
	// pendingLabel names the label attached to the next loop/switch/
	// select statement, for labeled break/continue.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the label pending for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		// The label starts a fresh block so goto and labeled loops have
		// a well-defined target.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		b.frames = append(b.frames, frame{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmt(s.Body)
		if post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		// The range statement itself stands for the per-iteration
		// key/value assignment.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, frame{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, func(cc ast.Stmt, blk *Block) []ast.Stmt {
			c := cc.(*ast.CaseClause)
			for _, e := range c.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			return c.Body
		}, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, func(cc ast.Stmt, blk *Block) []ast.Stmt {
			c := cc.(*ast.CaseClause)
			for _, e := range c.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			return c.Body
		}, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.caseClauses(label, s.Body.List, func(cc ast.Stmt, blk *Block) []ast.Stmt {
			c := cc.(*ast.CommClause)
			if c.Comm != nil {
				blk.Nodes = append(blk.Nodes, c.Comm)
			}
			return c.Body
		}, false)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findFrame(s.Label, false); t != nil {
				b.edge(b.cur, t.breakTo)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findFrame(s.Label, true); t != nil {
				b.edge(b.cur, t.continueTo)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			b.gotos = append(b.gotos, struct {
				label string
				from  *Block
			}{s.Label.Name, b.cur})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled structurally in caseClauses; a stray fallthrough
			// (malformed code) is ignored.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock()

	case *ast.DeferStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.cur = b.newBlock()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Send, Go, Decl, ...: straight-line nodes.
		b.add(s)
	}
}

// caseClauses wires switch/type-switch/select clause bodies:
// the current block branches to every clause, each clause body runs to
// the shared after block, and (for value switches) a trailing
// fallthrough chains to the next clause.
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, open func(ast.Stmt, *Block) []ast.Stmt, allowFallthrough bool) {
	cond := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, frame{label: label, breakTo: after})
	hasDefault := false
	blks := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, cc := range clauses {
		blks[i] = b.newBlock()
		b.edge(cond, blks[i])
		bodies[i] = open(cc, blks[i])
		switch c := cc.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
		}
	}
	for i := range clauses {
		body := bodies[i]
		fallsThrough := false
		if allowFallthrough && len(body) > 0 {
			if br, ok := body[len(body)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:len(body)-1]
			}
		}
		b.cur = blks[i]
		b.stmts(body)
		if fallsThrough && i+1 < len(blks) {
			b.edge(b.cur, blks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	// A switch or select without a default can fall through to the code
	// after it (no clause matches / used only for its side effects is
	// not expressible for select, but the conservative edge is harmless
	// for may-analyses).
	if !hasDefault {
		b.edge(cond, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// findFrame resolves the target of a break/continue, honoring labels.
func (b *cfgBuilder) findFrame(label *ast.Ident, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// isPanicCall reports whether e is a call to the predeclared panic.
// The check is syntactic (a local function named panic would fool it),
// which keeps the CFG builder independent of type information.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// funcNodes visits every function body in the file exactly once: each
// FuncDecl with a body and each FuncLit. Nested literals are visited in
// their own right in addition to appearing (unexpanded) in their
// enclosing function; fn is the *ast.FuncDecl or *ast.FuncLit itself.
func funcNodes(f *ast.File, visit func(fn ast.Node, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n, n.Body)
			}
		case *ast.FuncLit:
			visit(n, n.Body)
		}
		return true
	})
}

// walkShallow walks the subtree rooted at n but does not descend into
// nested function literals — the traversal analyzers use when a
// closure's body belongs to a different (concurrent) execution.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return visit(c)
	})
}

// walkBlockNode scans one CFG block node for an analyzer: like
// walkShallow, except that a RangeStmt contributes only its header
// (range expression, key, value) — its body statements live in their
// own blocks and must not be visited twice.
func walkBlockNode(n ast.Node, visit func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		visit(rs)
		for _, part := range []ast.Expr{rs.X, rs.Key, rs.Value} {
			if part != nil {
				walkShallow(part, visit)
			}
		}
		return
	}
	walkShallow(n, visit)
}
