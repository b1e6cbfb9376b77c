package analysis

import (
	"go/ast"
	"go/types"
)

// Conversions calls fn(src, dst) for every place in f where a value of
// the concrete type src flows into a slot of the interface type dst:
// call arguments (append's and panic's operands included), explicit
// conversions, assignments, typed var declarations, returns, composite
// literal elements and channel sends. The call graph links an interface
// method call only to the types some conversion boxes, and the deadcode
// analyzer keeps the methods a conversion exposes to code outside the
// module.
func Conversions(info *types.Info, f *ast.File, fn func(src, dst types.Type)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Body != nil {
				sig, _ := info.Defs[fd.Name].Type().(*types.Signature)
				scanConversions(info, fd.Body, sig, fn)
			}
			continue
		}
		scanConversions(info, decl, nil, fn)
	}
}

// scanConversions calls fn for every place in root where a value of
// concrete type flows into an interface-typed slot. sig is the
// signature the returns in root belong to; function literals bring
// their own.
func scanConversions(info *types.Info, root ast.Node, sig *types.Signature, fn func(src, dst types.Type)) {
	found := func(src, dst types.Type) {
		if !types.IsInterface(src) {
			fn(src, dst)
		}
	}
	conv := func(src ast.Expr, dst types.Type) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		if t := info.TypeOf(src); t != nil {
			found(t, dst)
		}
	}
	// convAll pairs values with slot types, spreading one tuple-valued
	// expression (f() returning several results) across the slots.
	convAll := func(values []ast.Expr, slot func(i int) types.Type, n int) {
		if len(values) == 1 && n > 1 {
			if tup, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < n; i++ {
					if dst := slot(i); dst != nil && types.IsInterface(dst) {
						found(tup.At(i).Type(), dst)
					}
				}
				return
			}
		}
		for i, v := range values {
			if i < n {
				conv(v, slot(i))
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit, _ := info.TypeOf(n).(*types.Signature)
			scanConversions(info, n.Body, lit, fn)
			return false
		case *ast.CallExpr:
			scanCall(info, n, conv, convAll)
		case *ast.AssignStmt:
			convAll(n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, len(n.Lhs))
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := info.TypeOf(n.Type)
				convAll(n.Values, func(int) types.Type { return dst }, len(n.Names))
			}
		case *ast.ReturnStmt:
			if sig != nil {
				convAll(n.Results, func(i int) types.Type { return sig.Results().At(i).Type() }, sig.Results().Len())
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(n.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			scanCompositeLit(info, n, conv)
		}
		return true
	})
}

// scanCall handles the conversions of one call: an explicit conversion
// to an interface type, append's and panic's operands, and arguments
// passed to interface-typed parameters.
func scanCall(info *types.Info, call *ast.CallExpr, conv func(ast.Expr, types.Type), convAll func([]ast.Expr, func(int) types.Type, int)) {
	tv := info.Types[call.Fun]
	if tv.Type == nil {
		return
	}
	if tv.IsType() {
		if len(call.Args) == 1 {
			conv(call.Args[0], tv.Type)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if s, ok := info.TypeOf(call).Underlying().(*types.Slice); ok && !call.Ellipsis.IsValid() {
					for _, a := range call.Args[1:] {
						conv(a, s.Elem())
					}
				}
			case "panic":
				conv(call.Args[0], types.Universe.Lookup("any").Type())
			}
			return
		}
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := len(call.Args)
	if len(call.Args) == 1 {
		if tup, ok := info.TypeOf(call.Args[0]).(*types.Tuple); ok {
			n = tup.Len()
		}
	}
	convAll(call.Args, func(i int) types.Type {
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				return last
			}
			return last.(*types.Slice).Elem()
		}
		return params.At(i).Type()
	}, n)
}

// scanCompositeLit handles the elements of a struct, slice, array or
// map literal stored into interface-typed fields, elements or keys.
func scanCompositeLit(info *types.Info, lit *ast.CompositeLit, conv func(ast.Expr, types.Type)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[key].(*types.Var); ok {
						conv(kv.Value, v.Type())
					}
				}
			} else if i < u.NumFields() {
				conv(el, u.Field(i).Type())
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var key, elem types.Type
		switch u := u.(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Map:
			key, elem = u.Key(), u.Elem()
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key != nil {
					conv(kv.Key, key)
				}
				el = kv.Value
			}
			conv(el, elem)
		}
	}
}
