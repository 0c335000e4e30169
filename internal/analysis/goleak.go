package analysis

import (
	"go/ast"
	"go/types"
)

// GoLeak is the resident-daemon generalization of ctxloop: goroutines
// launched in the long-lived packages must have a provable termination
// path, or the daemon accretes them forever. A `go` statement passes
// when the goroutine's body (a function literal, or a same-package
// function/method resolved from the call) shows one of:
//
//   - a context.Context mentioned at the body's own level (nested
//     literals excluded — handing a ctx to *another* goroutine is not
//     this goroutine's exit path);
//   - a sync.WaitGroup.Done call at the body's own level (the join side
//     then owns proving termination — and is what Close/Wait blocks on);
//   - no suspect loops at all: every loop is either bounded with no
//     blocking channel operations, or a range over a channel (a
//     close-owned loop — the channel's closer ends it).
//
// A loop is suspect when it is unconditional (`for { ... }`) or blocks
// on channel operations, and is not a channel range. Goroutines whose
// lifecycle is genuinely owned elsewhere (a read loop that exits when
// Close tears the connection down) carry //qfix:leak-ok telling that
// story. Straight-line goroutine bodies are not flagged here — a
// blocking send/receive without a loop is ctxloop's beat.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "flag goroutines in long-lived packages with no provable termination path " +
		"(no ctx, no WaitGroup join, no close-owned channel range)",
	Directive: "leak-ok",
	Packages: []string{
		"internal/qfixd", "internal/dist", "internal/sched", "internal/obs", "internal/frameconn",
	},
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goroutineBody(pass, g, decls)
			if body == nil {
				return true // external callee: its package owns the proof
			}
			kind := suspectLoop(pass, body)
			if kind == "" {
				return true
			}
			if topLevelMentionsContext(pass, body) || callsWaitGroupDone(pass, body) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine has no provable termination path: %s with no ctx, no WaitGroup.Done, and no close-owned channel range; annotate //qfix:leak-ok with the lifecycle story",
				kind)
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes the package's function declarations by their
// types object, so `go s.handle(conn)` resolves to handle's body.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// goroutineBody resolves the block a `go` statement will run: the
// literal's body, or the declared body of a same-package callee.
func goroutineBody(pass *Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				return fd.Body
			}
		}
	}
	return nil
}

// suspectLoop scans the body (nested function literals excluded: they
// run on yet other goroutines) for a loop with no intrinsic exit and
// describes the first one found, or returns "".
func suspectLoop(pass *Pass, body *ast.BlockStmt) string {
	kind := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				kind = "an unconditional loop"
				return false
			}
			if hasBlockingChanOp(pass, n.Body) {
				kind = "a loop blocking on channel operations"
				return false
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					// Close-owned: skip the range header, but keep
					// scanning the body for nested suspects.
					return true
				}
			}
			if hasBlockingChanOp(pass, n.Body) {
				kind = "a loop blocking on channel operations"
				return false
			}
		}
		return true
	})
	return kind
}

// topLevelMentionsContext is mentionsContext restricted to the body's
// own level: context uses inside nested function literals don't count
// as this goroutine's termination story.
func topLevelMentionsContext(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := pass.TypesInfo.Types[e]; ok && isContextType(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callsWaitGroupDone reports a sync.WaitGroup Done call at the body's
// own level (including deferred): the goroutine participates in a join.
func callsWaitGroupDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		t := pass.TypesInfo.Types[sel.X].Type
		if t == nil {
			return true
		}
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
