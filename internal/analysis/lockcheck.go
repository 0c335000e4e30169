package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the mutex contracts PR 9's concurrent subsystems
// rely on. A struct field annotated
//
//	//qfix:guarded-by mu
//
// (doc comment or end-of-line comment on the field) may only be read or
// written while the named mutex — a sync.Mutex or sync.RWMutex field of
// the same struct — is held on the same receiver path. The checker runs
// a pragmatic dominance walk over each function body: Lock/RLock set
// the held state, Unlock/RUnlock clear it, `defer mu.Unlock()` holds it
// to function exit, and control-flow joins keep only what is held on
// every non-terminating path. For sync.RWMutex an RLock suffices for
// reads; writes always need the exclusive lock. Two conventions are
// honored: methods whose name ends in "Locked" are assumed entered with
// every annotated mutex of their receiver held exclusively, and
// function literals are analyzed lock-free (they may run on another
// goroutine or after the caller unlocked), so closures must take the
// lock themselves. Accesses the walk cannot prove (snapshot reads of an
// unpublished struct, intentional unlocked reads) carry //qfix:lock-ok
// with the reasoning.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "flag accesses to //qfix:guarded-by annotated struct fields made without holding " +
		"the named mutex (RLock suffices for reads of RWMutex-guarded fields)",
	Directive: "lock-ok",
	Packages: []string{
		"internal/histstore", "internal/qfixd", "internal/dist", "internal/sched", "internal/frameconn",
	},
	Run: runLockCheck,
}

// guardInfo is one field's contract: the guarding mutex field's name
// and whether it is an RWMutex (shared holds satisfy reads).
type guardInfo struct {
	mutex string
	rw    bool
}

func runLockCheck(pass *Pass) error {
	c := &lockChecker{
		pass:    pass,
		guarded: map[*types.Var]guardInfo{},
		mutexes: map[*types.TypeName][]guardInfo{},
	}
	c.collectAnnotations()
	if len(c.guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.checkFunc(fn)
		}
	}
	return nil
}

type lockChecker struct {
	pass *Pass
	// guarded maps annotated field objects to their contract.
	guarded map[*types.Var]guardInfo
	// mutexes lists, per struct type, the mutex fields named by its
	// annotations — the set assumed held inside *Locked methods.
	mutexes map[*types.TypeName][]guardInfo
	// queue holds function literals to analyze lock-free once the
	// enclosing function's walk finishes.
	queue []*ast.FuncLit
}

// collectAnnotations walks struct declarations for //qfix:guarded-by
// directives and validates each against the struct's fields.
func (c *lockChecker) collectAnnotations() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			for _, field := range st.Fields.List {
				mutex, pos := fieldGuardDirective(field)
				if mutex == "" {
					continue
				}
				info, ok := c.lookupMutex(st, mutex)
				if !ok {
					c.pass.Reportf(pos,
						"//qfix:guarded-by %s: no sync.Mutex or sync.RWMutex field named %q in this struct", mutex, mutex)
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.guarded[v] = info
					}
				}
				if tn != nil && !containsGuard(c.mutexes[tn], info) {
					c.mutexes[tn] = append(c.mutexes[tn], info)
				}
			}
			return true
		})
	}
}

func containsGuard(gs []guardInfo, g guardInfo) bool {
	for _, x := range gs {
		if x.mutex == g.mutex {
			return true
		}
	}
	return false
}

// fieldGuardDirective extracts the mutex name from a //qfix:guarded-by
// directive riding the field (doc comment or same-line comment).
func fieldGuardDirective(field *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			m := directiveRE.FindStringSubmatch(cmt.Text)
			if m == nil || m[1] != "guarded-by" {
				continue
			}
			name := strings.Fields(m[2])
			if len(name) == 0 {
				return "", 0
			}
			return name[0], cmt.Slash
		}
	}
	return "", 0
}

// lookupMutex finds the named field in the struct AST and reports
// whether it is a sync mutex (and which kind).
func (c *lockChecker) lookupMutex(st *ast.StructType, name string) (guardInfo, bool) {
	for _, field := range st.Fields.List {
		for _, fname := range field.Names {
			if fname.Name != name {
				continue
			}
			t := c.pass.TypesInfo.Types[field.Type].Type
			switch mutexKind(t) {
			case "Mutex":
				return guardInfo{mutex: name}, true
			case "RWMutex":
				return guardInfo{mutex: name, rw: true}, true
			}
			return guardInfo{}, false
		}
	}
	return guardInfo{}, false
}

// mutexKind returns "Mutex" or "RWMutex" for the sync types, "" else.
func mutexKind(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
		return obj.Name()
	}
	return ""
}

// --- the per-function lock-state walk ---

// A lockKey names one mutex instance as an access path: the root object
// plus the field path from it ("" for s.mu, "enc" for c.enc.mu).
type lockKey struct {
	root  types.Object
	path  string
	mutex string
}

const (
	holdShared    = 1
	holdExclusive = 2
)

type lockState map[lockKey]int

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// intersect keeps the weakest hold present in both states.
func intersect(a, b lockState) lockState {
	out := lockState{}
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if vb < va {
				va = vb
			}
			out[k] = va
		}
	}
	return out
}

// checkFunc walks one declared function. Methods named *Locked are
// assumed entered with every annotated mutex of their receiver held.
func (c *lockChecker) checkFunc(fn *ast.FuncDecl) {
	entry := lockState{}
	if strings.HasSuffix(fn.Name.Name, "Locked") && fn.Recv != nil && len(fn.Recv.List) == 1 {
		if names := fn.Recv.List[0].Names; len(names) == 1 {
			recvObj := c.pass.TypesInfo.Defs[names[0]]
			if tn := receiverTypeName(c.pass, fn.Recv.List[0].Type); tn != nil && recvObj != nil {
				for _, g := range c.mutexes[tn] {
					entry[lockKey{recvObj, "", g.mutex}] = holdExclusive
				}
			}
		}
	}
	c.walkBlock(fn.Body.List, entry)
	c.drainQueue()
}

// drainQueue analyzes queued function literals lock-free; literals they
// themselves enqueue are drained too.
func (c *lockChecker) drainQueue() {
	for len(c.queue) > 0 {
		lit := c.queue[0]
		c.queue = c.queue[1:]
		if lit.Body != nil {
			c.walkBlock(lit.Body.List, lockState{})
		}
	}
}

func receiverTypeName(pass *Pass, e ast.Expr) *types.TypeName {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return nil
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// walkBlock runs the state machine over a statement list. It returns
// the fall-through state and whether every path through the list
// terminates (return/branch/infinite loop) before falling through.
func (c *lockChecker) walkBlock(stmts []ast.Stmt, state lockState) (lockState, bool) {
	for _, st := range stmts {
		var terminated bool
		state, terminated = c.walkStmt(st, state)
		if terminated {
			return nil, true
		}
	}
	return state, false
}

func (c *lockChecker) walkStmt(st ast.Stmt, state lockState) (lockState, bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if key, op, ok := c.lockOp(st.X); ok {
			c.applyLockOp(state, key, op)
			return state, false
		}
		c.scanExpr(st.X, state)
		return state, false
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			c.scanExpr(r, state)
		}
		for _, l := range st.Lhs {
			c.scanWriteTarget(l, state)
		}
		return state, false
	case *ast.IncDecStmt:
		c.scanWriteTarget(st.X, state)
		return state, false
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if _, isLit := n.(*ast.FuncLit); isLit {
					c.queue = append(c.queue, n.(*ast.FuncLit))
					return false
				}
				c.checkSelector(e, state, false)
			}
			return true
		})
		return state, false
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held to function exit, so
		// it changes nothing in the forward walk. Other deferred calls
		// evaluate their arguments now; deferred closures run at exit
		// with unknown state and are analyzed lock-free.
		if _, op, ok := c.lockOp(st.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return state, false
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			c.queue = append(c.queue, lit)
		} else {
			c.scanExpr(st.Call.Fun, state)
		}
		for _, a := range st.Call.Args {
			c.scanExpr(a, state)
		}
		return state, false
	case *ast.GoStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			c.queue = append(c.queue, lit)
		} else {
			c.scanExpr(st.Call.Fun, state)
		}
		for _, a := range st.Call.Args {
			c.scanExpr(a, state)
		}
		return state, false
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.scanExpr(r, state)
		}
		return nil, true
	case *ast.BranchStmt:
		return nil, true
	case *ast.BlockStmt:
		return c.walkBlock(st.List, state)
	case *ast.IfStmt:
		if st.Init != nil {
			state, _ = c.walkStmt(st.Init, state)
		}
		c.scanExpr(st.Cond, state)
		thenState, thenTerm := c.walkBlock(st.Body.List, state.clone())
		elseState, elseTerm := state, false
		if st.Else != nil {
			elseState, elseTerm = c.walkStmt(st.Else, state.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return nil, true
		case thenTerm:
			return elseState, false
		case elseTerm:
			return thenState, false
		default:
			return intersect(thenState, elseState), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			state, _ = c.walkStmt(st.Init, state)
		}
		if st.Cond != nil {
			c.scanExpr(st.Cond, state)
		}
		bodyState, bodyTerm := c.walkBlock(st.Body.List, state.clone())
		if st.Post != nil && !bodyTerm {
			c.walkStmt(st.Post, bodyState)
		}
		if st.Cond == nil && !hasBreak(st.Body) {
			return nil, true // infinite loop: code after is unreachable
		}
		if bodyTerm {
			return state, false
		}
		return intersect(state, bodyState), false
	case *ast.RangeStmt:
		c.scanExpr(st.X, state)
		bodyState, bodyTerm := c.walkBlock(st.Body.List, state.clone())
		if bodyTerm {
			return state, false
		}
		return intersect(state, bodyState), false
	case *ast.SwitchStmt:
		if st.Init != nil {
			state, _ = c.walkStmt(st.Init, state)
		}
		if st.Tag != nil {
			c.scanExpr(st.Tag, state)
		}
		return c.walkClauses(st.Body, state, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			state, _ = c.walkStmt(st.Init, state)
		}
		if st.Assign != nil {
			state, _ = c.walkStmt(st.Assign, state)
		}
		return c.walkClauses(st.Body, state, true)
	case *ast.SelectStmt:
		return c.walkClauses(st.Body, state, false)
	case *ast.SendStmt:
		c.scanExpr(st.Chan, state)
		c.scanExpr(st.Value, state)
		return state, false
	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt, state)
	case *ast.EmptyStmt:
		return state, false
	default:
		// Unknown statement kinds: scan expressions conservatively.
		ast.Inspect(st, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.queue = append(c.queue, lit)
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				c.checkSelector(e, state, false)
			}
			return true
		})
		return state, false
	}
}

// walkClauses joins switch/select case bodies. mayFallThrough says the
// statement can execute no clause at all (a switch with no default), in
// which case the entry state joins the intersection.
func (c *lockChecker) walkClauses(body *ast.BlockStmt, state lockState, isSwitch bool) (lockState, bool) {
	var exits []lockState
	hasDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.scanExpr(e, state)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				// Comm clauses carry no lock ops; scan them for accesses.
				c.walkStmt(cl.Comm, state.clone())
			}
			stmts = cl.Body
		}
		exit, term := c.walkBlock(stmts, state.clone())
		if !term {
			exits = append(exits, exit)
		}
	}
	if isSwitch && !hasDefault {
		exits = append(exits, state)
	}
	if len(exits) == 0 {
		if len(body.List) == 0 {
			return state, false
		}
		return nil, true
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = intersect(out, e)
	}
	return out, false
}

// hasBreak reports whether the loop body contains an unlabeled break
// not swallowed by a nested loop/switch/select (conservatively: any
// break at all outside nested function literals counts).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				found = true
			}
		}
		return !found
	})
	return found
}

// lockOp recognizes `path.mu.Lock()`-shaped calls on an annotated-kind
// mutex field and returns the key and method name.
func (c *lockChecker) lockOp(e ast.Expr) (lockKey, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return lockKey{}, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	msel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	if mutexKind(c.pass.TypesInfo.Types[msel].Type) == "" {
		return lockKey{}, "", false
	}
	root, path, ok := accessPath(c.pass, msel.X)
	if !ok {
		return lockKey{}, "", false
	}
	return lockKey{root, path, msel.Sel.Name}, sel.Sel.Name, true
}

func (c *lockChecker) applyLockOp(state lockState, key lockKey, op string) {
	switch op {
	case "Lock":
		state[key] = holdExclusive
	case "RLock":
		state[key] = holdShared
	case "Unlock", "RUnlock":
		delete(state, key)
	}
}

// accessPath resolves an expression like `s` or `c.enc` to its root
// object and dotted field path. Anything else (calls, indexing) is not
// a stable lock identity.
func accessPath(pass *Pass, e ast.Expr) (types.Object, string, bool) {
	var parts []string
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			parts = append([]string{x.Sel.Name}, parts...)
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return nil, "", false
			}
			return obj, strings.Join(parts, "."), true
		default:
			return nil, "", false
		}
	}
}

// scanExpr checks every guarded-field read inside e (function literals
// are deferred to the lock-free queue).
func (c *lockChecker) scanExpr(e ast.Expr, state lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.queue = append(c.queue, n)
			return false
		case *ast.UnaryExpr:
			// Taking a guarded field's address lets it escape the lock's
			// scope; require the exclusive lock like a write.
			if n.Op.String() == "&" {
				if sel := stripToSelector(n.X); sel != nil && c.checkSelector(sel, state, true) {
					c.scanIndexes(n.X, state)
					return false
				}
			}
		case *ast.CallExpr:
			// delete(s.m, k) mutates the guarded map: a write.
			if isBuiltin(c.pass, n.Fun, "delete") && len(n.Args) == 2 {
				if sel := stripToSelector(n.Args[0]); sel != nil && c.checkSelector(sel, state, true) {
					c.scanExpr(n.Args[1], state)
					return false
				}
			}
		case *ast.SelectorExpr:
			if c.checkSelector(n, state, false) {
				// Guarded field handled; still scan the base and any
				// nested expressions (indexes) it hangs off.
				c.scanExpr(n.X, state)
				return false
			}
		}
		return true
	})
}

// scanWriteTarget classifies an assignment LHS: the base selector (if
// guarded) needs the exclusive lock, everything else in the expression
// (indexes, nested selectors) is read.
func (c *lockChecker) scanWriteTarget(l ast.Expr, state lockState) {
	if sel := stripToSelector(l); sel != nil && c.checkSelector(sel, state, true) {
		c.scanIndexes(l, state)
		c.scanExpr(sel.X, state)
		return
	}
	// Not a guarded-field target (plain ident, or unresolvable): the
	// expression's reads still need checking (e.g. s.m[k] indexes).
	c.scanIndexes(l, state)
	if sel, ok := l.(*ast.SelectorExpr); ok {
		c.scanExpr(sel.X, state)
	}
}

// scanIndexes checks the index expressions hanging off an assignable
// chain (x[i].f[j] = ...): they are reads.
func (c *lockChecker) scanIndexes(e ast.Expr, state lockState) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			c.scanExpr(x.Index, state)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return
		}
	}
}

// stripToSelector unwraps an assignable chain (x[i], *x, (x)) down to
// the base selector expression, if any.
func stripToSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// checkSelector verifies one selector access against the lock state if
// it resolves to a guarded field; it reports a violation and returns
// whether the selector was a guarded field.
func (c *lockChecker) checkSelector(e ast.Expr, state lockState, write bool) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fieldVar, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return false
	}
	info, ok := c.guarded[fieldVar]
	if !ok {
		return false
	}
	root, path, resolvable := accessPath(c.pass, sel.X)
	verb := "read"
	if write {
		verb = "write to"
	}
	if !resolvable {
		c.pass.Reportf(sel.Pos(),
			"cannot prove %s.%s is accessed with %s held: receiver is not a plain field path; annotate //qfix:lock-ok with why this %s is safe",
			render(sel.X), sel.Sel.Name, info.mutex, verb)
		return true
	}
	have := state[lockKey{root, path, info.mutex}]
	need := holdExclusive
	if !write && info.rw {
		need = holdShared
	}
	if have >= need {
		return true
	}
	lockName := info.mutex
	hint := "hold " + lockName
	if !write && info.rw {
		hint = "hold " + lockName + " (RLock suffices for reads)"
	}
	c.pass.Reportf(sel.Pos(),
		"%s %s.%s without holding %s (field is //qfix:guarded-by %s); %s or annotate //qfix:lock-ok with why this access is safe",
		verb, render(sel.X), sel.Sel.Name, lockName, lockName, hint)
	return true
}

// render prints a small expression for diagnostics.
func render(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return render(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return render(x.X)
	case *ast.StarExpr:
		return "*" + render(x.X)
	case *ast.IndexExpr:
		return render(x.X) + "[...]"
	case *ast.CallExpr:
		return render(x.Fun) + "(...)"
	default:
		return "expr"
	}
}
