package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the `guarded by <mutex>` contracts written on
// struct fields (lru.Memo's slot cache, encoder.Tables' system-index
// slot, Netlist's derived caches, LFSR's skip memo): any read or write of a
// guarded field must happen in a function that acquires the guarding
// mutex on the same receiver (Lock, or RLock for reads). Two idioms are
// recognized as safe without a local acquire: passing the field to a
// function that also receives the guarding mutex ("the lock travels
// with the data"), and functions whose name
// ends in "Locked" (the stdlib convention for helpers whose callers hold
// the lock). The check is flow-insensitive: acquiring anywhere in the
// function counts, which keeps it simple and has no false negatives for
// the lock-at-entry style this repository uses.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "flags guarded-field accesses in functions that never acquire the guarding mutex",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) error {
	meta := collectMeta(pass)
	if len(meta.guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncLocks(pass, meta, fd)
		}
	}
	return nil
}

// lockAcquire records one mutex acquisition found in a function body:
// the base expression the mutex was selected from and whether it was a
// read lock.
type lockAcquire struct {
	base  string
	mutex *types.Var
	rlock bool
}

// checkFuncLocks verifies every guarded-field access of one function.
func checkFuncLocks(pass *Pass, meta *pkgMeta, fd *ast.FuncDecl) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return // callers hold the lock by convention
	}
	acquires := collectAcquires(pass, meta, fd.Body)
	held := func(base string, mu *types.Var, write bool) bool {
		for _, a := range acquires {
			if a.base == base && a.mutex == mu && !(write && a.rlock) {
				return true
			}
		}
		return false
	}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fsel, ok := pass.Info.Selections[sel]
		if !ok || fsel.Kind() != types.FieldVal {
			return true
		}
		field := selectedField(fsel)
		g := meta.guards[field]
		if g == nil {
			return true
		}
		base := exprString(pass.Fset, sel.X)
		write := isWriteContext(sel, stack)
		if held(base, g.mutex, write) {
			return true
		}
		if lockTravelsWith(pass, sel, stack, base, g.mutex) {
			return true
		}
		verb := "read of"
		if write {
			verb = "write to"
		}
		pass.Reportf(sel.Pos(), "%s %s.%s (guarded by %s) without %s.%s held",
			verb, g.structName, field.Name(), g.mutex.Name(), base, g.mutex.Name())
		return true
	})
}

// collectAcquires finds every `x.mu.Lock()` / `x.mu.RLock()` call in
// body where mu is a known guarding mutex.
func collectAcquires(pass *Pass, meta *pkgMeta, body *ast.BlockStmt) []lockAcquire {
	guardMutexes := make(map[*types.Var]bool)
	for _, g := range meta.guards {
		guardMutexes[g.mutex] = true
	}
	var out []lockAcquire
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (method.Sel.Name != "Lock" && method.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := method.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fsel, ok := pass.Info.Selections[muSel]
		if !ok || fsel.Kind() != types.FieldVal {
			return true
		}
		mu := selectedField(fsel)
		if !guardMutexes[mu] {
			return true
		}
		out = append(out, lockAcquire{
			base:  exprString(pass.Fset, muSel.X),
			mutex: mu,
			rlock: method.Sel.Name == "RLock",
		})
		return true
	})
	return out
}

// isWriteContext reports whether sel (possibly wrapped in index/slice/
// star expressions) is the target of an assignment, an inc/dec, the
// destination of a delete, or has its address taken.
func isWriteContext(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var child ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			child = stack[i]
			continue
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == child
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.CallExpr:
			if id, ok := p.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
			return false
		default:
			return false
		}
	}
	return false
}

// lockTravelsWith reports whether the access is an argument of a call
// that also passes the guarding mutex of the same base (by address or
// value) — the "lock travels with the data" delegation idiom.
func lockTravelsWith(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node, base string, mu *types.Var) bool {
	muExpr := base + "." + mu.Name()
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		for _, arg := range call.Args {
			s := exprString(pass.Fset, arg)
			if s == muExpr || s == "&"+muExpr {
				return true
			}
		}
	}
	return false
}
