package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLoop flags the exact shape of the ctx-deaf bugs fixed in PRs 3–4
// (InProc.Do ignoring cancellation, loops pinning budget after the
// coordinator moved on): blocking loops and goroutines in the
// concurrent packages that neither select on nor consult a
// context.Context. Three triggers:
//
//   - a loop containing a blocking channel operation (send, receive,
//     range over a channel, or a select with neither default nor a
//     context case) with no context value mentioned anywhere in the
//     loop;
//   - an unconditional `for { ... }` loop with no context mention —
//     even without channel ops it can spin past cancellation;
//   - a goroutine whose body performs blocking channel operations
//     outside any loop, with no context mention.
//
// Mentioning a context (ctx.Done, ctx.Err, passing ctx onward) is
// deliberately sufficient: the analyzer enforces that cancellation was
// considered at the site, not a particular select shape. Sites whose
// cancellation story lives elsewhere (drained channels, close-based
// teardown) carry //qfix:ctx-ok with that story spelled out.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc: "flag blocking loops, channel operations, and goroutines that never consult a " +
		"context.Context and so cannot be cancelled",
	Directive: "ctx-ok",
	Packages: []string{
		"internal/dist", "internal/sched", "internal/core", "internal/qfixd", "internal/frameconn",
	},
	Run: runCtxLoop,
}

func runCtxLoop(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				return !checkLoop(pass, n, n.Body, n.Cond == nil)
			case *ast.RangeStmt:
				return !checkLoop(pass, n, n.Body, false)
			case *ast.GoStmt:
				checkGoroutine(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkLoop reports a ctx-deaf loop and returns whether it fired; a
// fired report swallows the loop's subtree so nested loops aren't
// re-reported under the same fix.
func checkLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt, infinite bool) bool {
	if mentionsContext(pass, loop) {
		return false
	}
	rng, isRange := loop.(*ast.RangeStmt)
	blocking := hasBlockingChanOp(pass, body)
	if isRange && !blocking {
		// Ranging over a channel is itself a blocking receive.
		if t := pass.TypesInfo.Types[rng.X].Type; t != nil {
			_, blocking = t.Underlying().(*types.Chan)
		}
	}
	switch {
	case blocking:
		pass.Reportf(loop.Pos(),
			"loop blocks on channel operations but never consults a context.Context; select on ctx.Done or annotate //qfix:ctx-ok with the cancellation story")
	case infinite:
		pass.Reportf(loop.Pos(),
			"unconditional loop never consults a context.Context; check ctx.Err in the loop or annotate //qfix:ctx-ok with the cancellation story")
	default:
		return false
	}
	return true
}

// checkGoroutine flags `go func(){...}` bodies that block on channels
// outside any loop without mentioning a context (loops inside the body
// are checkLoop's job).
func checkGoroutine(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok || lit.Body == nil {
		return
	}
	if mentionsContext(pass, lit.Body) {
		return
	}
	if scanBlockingChanOps(pass, lit.Body, true) {
		pass.Reportf(g.Pos(),
			"goroutine blocks on channel operations but never consults a context.Context; thread a ctx or annotate //qfix:ctx-ok with the cancellation story")
	}
}

// mentionsContext reports whether any expression under n has type
// context.Context (including uses inside nested function literals:
// handing the ctx to spawned work counts as having a story).
func mentionsContext(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasBlockingChanOp scans a subtree for channel operations that can
// block, skipping nested function literals (their bodies run on other
// goroutines) and the comm clauses of select statements that have a
// default case (those never block).
func hasBlockingChanOp(pass *Pass, n ast.Node) bool {
	return scanBlockingChanOps(pass, n, false)
}

// scanBlockingChanOps is hasBlockingChanOp with an option to skip
// loops, for goroutine bodies where loops are checkLoop's job.
func scanBlockingChanOps(pass *Pass, n ast.Node, skipLoops bool) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found {
			return false
		}
		if skipLoops {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return false
			}
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				found = true
				return false
			}
			// Non-blocking select: only the clause bodies matter.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		}
		if isBlockingChanNode(pass, n) {
			found = true
			return false
		}
		return true
	}
	ast.Inspect(n, walk)
	return found
}

// isBlockingChanNode reports whether n is, by itself, a potentially
// blocking channel operation: a send, a receive, or a range over a
// channel.
func isBlockingChanNode(pass *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		if t := pass.TypesInfo.Types[n.X].Type; t != nil {
			_, ok := t.Underlying().(*types.Chan)
			return ok
		}
	}
	return false
}
