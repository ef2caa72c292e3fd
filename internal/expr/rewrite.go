package expr

import (
	"fmt"
)

// Visit walks the expression tree in pre-order, calling fn for every node.
// fn returning false prunes the subtree.
func Visit(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *Binary:
		Visit(v.L, fn)
		Visit(v.R, fn)
	case *Unary:
		Visit(v.E, fn)
	case *IsNull:
		Visit(v.E, fn)
	case *Like:
		Visit(v.E, fn)
		Visit(v.Pattern, fn)
	case *InList:
		Visit(v.E, fn)
		for _, m := range v.List {
			Visit(m, fn)
		}
	case *FuncCall:
		for _, a := range v.Args {
			Visit(a, fn)
		}
	case *Contains:
		Visit(v.Col, fn)
	}
}

// Rewrite rebuilds the tree bottom-up, replacing each node with fn(node)
// after its children have been rewritten. fn returning nil keeps the
// (possibly child-rewritten) node.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	var out Expr
	switch v := e.(type) {
	case *Const, *ColRef, *Param:
		out = e
	case *Binary:
		out = &Binary{Op: v.Op, L: Rewrite(v.L, fn), R: Rewrite(v.R, fn)}
	case *Unary:
		out = &Unary{Op: v.Op, E: Rewrite(v.E, fn)}
	case *IsNull:
		out = &IsNull{E: Rewrite(v.E, fn), Negate: v.Negate}
	case *Like:
		out = &Like{E: Rewrite(v.E, fn), Pattern: Rewrite(v.Pattern, fn), Negate: v.Negate}
	case *InList:
		list := make([]Expr, len(v.List))
		for i, m := range v.List {
			list[i] = Rewrite(m, fn)
		}
		out = &InList{E: Rewrite(v.E, fn), List: list, Negate: v.Negate}
	case *FuncCall:
		args := make([]Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = Rewrite(a, fn)
		}
		out = &FuncCall{Name: v.Name, Args: args}
	case *Contains:
		out = &Contains{Col: Rewrite(v.Col, fn), Query: v.Query, parsed: v.parsed}
	default:
		out = e
	}
	if r := fn(out); r != nil {
		return r
	}
	return out
}

// Cols returns the set of ColumnIDs referenced by e.
func Cols(e Expr) ColSet {
	s := ColSet{}
	Visit(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok {
			s.Add(c.ID)
		}
		return true
	})
	return s
}

// HasParams reports whether e references any query parameter.
func HasParams(e Expr) bool {
	found := false
	Visit(e, func(n Expr) bool {
		if _, ok := n.(*Param); ok {
			found = true
		}
		return !found
	})
	return found
}

// Bind returns a copy of e with every ColRef resolved to its position in
// layout. Unknown columns produce an error.
func Bind(e Expr, layout map[ColumnID]int) (Expr, error) {
	var bindErr error
	out := Rewrite(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok {
			return nil
		}
		pos, ok := layout[c.ID]
		if !ok {
			if bindErr == nil {
				bindErr = fmt.Errorf("expr: column %s (id %d) not in layout", c.Name, c.ID)
			}
			return nil
		}
		return &ColRef{ID: c.ID, Name: c.Name, pos: pos}
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}

// Substitute replaces ColRefs whose IDs appear in subst with the mapped
// expressions (used when projections are inlined or views expand).
func Substitute(e Expr, subst map[ColumnID]Expr) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*ColRef); ok {
			if r, ok := subst[c.ID]; ok {
				return r
			}
		}
		return nil
	})
}

// ReplaceColsWithParams converts ColRefs in ids to parameter references with
// generated names, returning the rewritten expression and the mapping from
// parameter name to ColumnID. This is the parameterization exploration rule's
// mechanism (§4.1.2): outer-row columns become @p<i> markers pushed into the
// remote query.
func ReplaceColsWithParams(e Expr, ids ColSet) (Expr, map[string]ColumnID) {
	params := map[string]ColumnID{}
	next := 0
	nameOf := map[ColumnID]string{}
	out := Rewrite(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok || !ids.Has(c.ID) {
			return nil
		}
		name, ok := nameOf[c.ID]
		if !ok {
			name = fmt.Sprintf("p%d", next)
			next++
			nameOf[c.ID] = name
			params[name] = c.ID
		}
		return &Param{Name: name}
	})
	return out, params
}

// SplitConjuncts flattens a predicate into its AND-ed conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjoin ANDs a list of predicates; nil for an empty list.
func Conjoin(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// FoldConstants evaluates constant subtrees at compile time. Errors during
// folding (e.g. division by zero) leave the subtree unfolded so the error
// surfaces at execution, matching SQL semantics.
func FoldConstants(e Expr) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if !foldable(n) {
			return nil
		}
		v, err := EvalScalar(n, &Env{})
		if err != nil {
			return nil
		}
		return &Const{Val: v}
	})
}

// foldable reports whether n's immediate operands are all constants and n is
// a deterministic, environment-free construct.
func foldable(n Expr) bool {
	switch v := n.(type) {
	case *Binary:
		return isConst(v.L) && isConst(v.R)
	case *Unary:
		return isConst(v.E)
	case *IsNull:
		return isConst(v.E)
	case *Like:
		return isConst(v.E) && isConst(v.Pattern)
	case *InList:
		if !isConst(v.E) {
			return false
		}
		for _, m := range v.List {
			if !isConst(m) {
				return false
			}
		}
		return true
	case *FuncCall:
		if v.Name == "today" {
			return false
		}
		for _, a := range v.Args {
			if !isConst(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// EquiPair is one equality column pair extracted from a join predicate.
type EquiPair struct {
	Left, Right ColumnID
}

// ExtractEquiJoin partitions a join predicate's conjuncts into equi-join
// column pairs (left-side column = right-side column) and a residual
// predicate. leftCols/rightCols identify which relation each column belongs
// to. The hash and batched loop join implementation rules consume the pairs.
func ExtractEquiJoin(pred Expr, leftCols, rightCols ColSet) (pairs []EquiPair, residual Expr) {
	var rest []Expr
	for _, c := range SplitConjuncts(pred) {
		b, ok := c.(*Binary)
		if !ok || b.Op != OpEq {
			rest = append(rest, c)
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		switch {
		case leftCols.Has(lc.ID) && rightCols.Has(rc.ID):
			pairs = append(pairs, EquiPair{Left: lc.ID, Right: rc.ID})
		case leftCols.Has(rc.ID) && rightCols.Has(lc.ID):
			pairs = append(pairs, EquiPair{Left: rc.ID, Right: lc.ID})
		default:
			rest = append(rest, c)
		}
	}
	return pairs, Conjoin(rest)
}

// RemotableProfile describes the scalar constructs a remote dialect accepts;
// the predicate split/merge rules (§4.1.2) and the decoder consult it.
type RemotableProfile struct {
	// Funcs lists remotable scalar function names; nil means none.
	Funcs map[string]bool
	// Like and InList gate those constructs.
	Like   bool
	InList bool
	// Params gates parameter markers (needed for parameterized remoting).
	Params bool
}

// FullRemotable is the profile of a fully SQL-92-capable provider.
func FullRemotable() RemotableProfile {
	return RemotableProfile{
		Funcs:  map[string]bool{"len": true, "upper": true, "lower": true, "substring": true, "abs": true, "year": true, "month": true},
		Like:   true,
		InList: true,
		Params: true,
	}
}

// IsRemotable reports whether e can be decoded into the remote dialect
// described by p. CONTAINS is never remotable to SQL providers — it belongs
// to the full-text service's language.
func IsRemotable(e Expr, p RemotableProfile) bool {
	ok := true
	Visit(e, func(n Expr) bool {
		switch v := n.(type) {
		case *Contains:
			ok = false
		case *FuncCall:
			if p.Funcs == nil || !p.Funcs[v.Name] {
				ok = false
			}
		case *Like:
			if !p.Like {
				ok = false
			}
		case *InList:
			if !p.InList {
				ok = false
			}
		case *Param:
			if !p.Params {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// SingleColumnComparison recognizes predicates of the form col op const /
// col op @param (either operand order), returning the column, the
// normalized operator (as if the column were on the left) and the value
// expression. The constraint framework and index-range planning consume it.
func SingleColumnComparison(e Expr) (col *ColRef, op Op, val Expr, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || !b.Op.IsComparison() {
		return nil, OpInvalid, nil, false
	}
	lc, lIsCol := b.L.(*ColRef)
	rc, rIsCol := b.R.(*ColRef)
	switch {
	case lIsCol && !rIsCol && len(Cols(b.R)) == 0:
		return lc, b.Op, b.R, true
	case rIsCol && !lIsCol && len(Cols(b.L)) == 0:
		return rc, b.Op.Commute(), b.L, true
	default:
		return nil, OpInvalid, nil, false
	}
}
