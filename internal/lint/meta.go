package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// frozenRe matches the `lint:frozen` marker in a type's doc comment,
// with an optional comma-separated allow-list of extra builder
// functions: `lint:frozen allow=Systems,extendArena`. The marker must
// stand on its own line so prose merely mentioning the marker (such as
// this comment) never freezes a type.
var frozenRe = regexp.MustCompile(`(?m)^lint:frozen(?:\s+allow=([A-Za-z0-9_,]+))?\s*$`)

// guardedRe matches the `guarded by <mutex>` convention in a struct
// field's doc or trailing comment.
var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// builderRe matches function names conventionally allowed to write
// frozen fields: constructors and build/extend helpers.
var builderRe = regexp.MustCompile(`(?i)^(new|make|build|compute|derive|ensure|extend|init)`)

// frozenType records the write policy of one lint:frozen struct type.
type frozenType struct {
	name   *types.TypeName
	allow  map[string]bool     // extra allowed writer functions
	fields map[*types.Var]bool // frozen fields (guarded fields excluded)
}

// guardInfo records one "guarded by" relationship inside a struct.
type guardInfo struct {
	structName string     // declaring struct's type name, for messages
	mutex      *types.Var // the guarding mutex field
}

// pkgMeta is the per-package index of lint markers: frozen types and
// guarded fields, gathered from struct declarations before analysis.
type pkgMeta struct {
	frozen map[*types.TypeName]*frozenType
	guards map[*types.Var]*guardInfo
}

// collectMeta scans the package's struct declarations for lint:frozen
// markers and "guarded by" field comments.
func collectMeta(pass *Pass) *pkgMeta {
	meta := &pkgMeta{
		frozen: make(map[*types.TypeName]*frozenType),
		guards: make(map[*types.Var]*guardInfo),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				doc := docText(gd.Doc) + "\n" + docText(ts.Doc)
				var frozen *frozenType
				if m := frozenRe.FindStringSubmatch(doc); m != nil {
					frozen = &frozenType{
						name:   obj,
						allow:  make(map[string]bool),
						fields: make(map[*types.Var]bool),
					}
					for _, fn := range strings.Split(m[1], ",") {
						if fn != "" {
							frozen.allow[fn] = true
						}
					}
					meta.frozen[obj] = frozen
				}
				collectStructMeta(pass, obj.Name(), st, frozen, meta)
			}
		}
	}
	return meta
}

// collectStructMeta indexes one struct's fields: "guarded by" fields go
// into meta.guards, every other field of a frozen struct into the frozen
// set (mutexes themselves are never frozen — Lock must mutate them).
func collectStructMeta(pass *Pass, structName string, st *ast.StructType, frozen *frozenType, meta *pkgMeta) {
	// First pass: name → field object, to resolve guard references.
	byName := make(map[string]*types.Var)
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok {
				byName[name.Name] = v
			}
		}
	}
	for _, f := range st.Fields.List {
		guard := ""
		if m := guardedRe.FindStringSubmatch(docText(f.Doc) + "\n" + docText(f.Comment)); m != nil {
			guard = m[1]
		}
		for _, name := range f.Names {
			v, ok := pass.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if guard != "" {
				if mu, ok := byName[guard]; ok && isMutexType(mu.Type()) {
					meta.guards[v] = &guardInfo{structName: structName, mutex: mu}
					continue
				}
			}
			if frozen != nil && !isMutexType(v.Type()) {
				frozen.fields[v] = true
			}
		}
	}
}

// docText flattens a comment group to plain text ("" when nil).
func docText(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	return cg.Text()
}

// exprString renders an expression compactly for base-path comparison
// ("s", "c.inner", "(*p).cache").
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// walkStack traverses root like ast.Inspect while maintaining the stack
// of enclosing nodes (innermost last, excluding n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// rootField unwraps index, slice, star and paren wrappers around an
// lvalue and returns the field selection at its root, if any: for
// `t.arena[i]` it returns the selection of `t.arena`.
func rootField(pass *Pass, e ast.Expr) (*ast.SelectorExpr, *types.Selection) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[x]
			if ok && sel.Kind() == types.FieldVal {
				return x, sel
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// selectedField returns the declared struct field behind a field
// selection. In the methods of a generic type, and on its instances, a
// selection names an instantiated copy of the field; Origin maps it back
// to the declaration the lint markers were collected from.
func selectedField(sel *types.Selection) *types.Var {
	v, _ := sel.Obj().(*types.Var)
	if v == nil {
		return nil
	}
	return v.Origin()
}

// namedOf strips pointers and returns the named type of t, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// enclosingFuncName returns the name of the outermost function
// declaration on the stack ("" at file scope).
func enclosingFuncName(stack []ast.Node) string {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
