package lint

import (
	"go/ast"
	"go/types"
)

// FrozenTables enforces the "immutable after build, shared across
// workers" contract: types whose doc comment carries a `lint:frozen`
// marker (atpg.Tables, encoder.Tables, gf2.RowSet) may only have their
// fields written by builder functions — names matching
// new|make|build|compute|derive|ensure|extend|init (case-insensitive
// prefix) or listed in the marker's allow= clause. Any other assignment,
// increment, indexed store or copy-into targeting a frozen field is
// reported. Fields documented as "guarded by <mutex>" are exempt here:
// they are mutable-under-lock state owned by the lockcheck analyzer.
var FrozenTables = &Analyzer{
	Name: "frozentables",
	Doc:  "flags writes to lint:frozen struct fields outside builder functions",
	Run:  runFrozenTables,
}

func runFrozenTables(pass *Pass) error {
	meta := collectMeta(pass)
	if len(meta.frozen) == 0 {
		return nil
	}
	// fieldOwner maps each frozen field to its type's policy.
	fieldOwner := make(map[types.Object]*frozenType)
	for _, ft := range meta.frozen {
		for f := range ft.fields {
			fieldOwner[f] = ft
		}
	}
	report := func(stack []ast.Node, sel *ast.SelectorExpr, fsel *types.Selection, verb string) {
		ft := fieldOwner[selectedField(fsel)]
		fn := enclosingFuncName(stack)
		if fn != "" && (builderRe.MatchString(fn) || ft.allow[fn]) {
			return
		}
		pass.Reportf(sel.Pos(), "%s frozen field %s.%s outside builder functions (%s is lint:frozen)",
			verb, ft.name.Name(), selectedField(fsel).Name(), ft.name.Name())
	}
	check := func(stack []ast.Node, e ast.Expr, verb string) {
		sel, fsel := rootField(pass, e)
		if sel == nil || fieldOwner[selectedField(fsel)] == nil {
			return
		}
		report(stack, sel, fsel, verb)
	}
	for _, file := range pass.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					check(stack, lhs, "write to")
				}
			case *ast.IncDecStmt:
				check(stack, s.X, "write to")
			case *ast.CallExpr:
				if isBuiltin(pass, s, "copy") && len(s.Args) == 2 {
					check(stack, s.Args[0], "copy into")
				}
			}
			return true
		})
	}
	return nil
}
