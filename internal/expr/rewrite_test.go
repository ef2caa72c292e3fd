package expr

import (
	"testing"

	"dhqp/internal/sqltypes"
)

func TestColSetOps(t *testing.T) {
	a := NewColSet(1, 2, 3)
	b := NewColSet(3, 4)
	if !a.Has(2) || a.Has(4) {
		t.Error("Has")
	}
	if !NewColSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf")
	}
	u := a.Union(b)
	if len(u) != 4 {
		t.Errorf("Union size = %d", len(u))
	}
	if !a.Intersects(b) || NewColSet(9).Intersects(a) {
		t.Error("Intersects")
	}
	s := a.Sorted()
	if s[0] != 1 || s[2] != 3 {
		t.Errorf("Sorted = %v", s)
	}
}

func TestCols(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpEq, NewColRef(1, "a"), NewColRef(2, "b")),
		NewBinary(OpGt, NewColRef(1, "a"), i64(5)))
	cs := Cols(e)
	if len(cs) != 2 || !cs.Has(1) || !cs.Has(2) {
		t.Errorf("Cols = %v", cs)
	}
}

func TestHasParams(t *testing.T) {
	if HasParams(i64(1)) {
		t.Error("const has no params")
	}
	if !HasParams(NewBinary(OpEq, NewColRef(1, "a"), NewParam("x"))) {
		t.Error("param not detected")
	}
}

func TestBind(t *testing.T) {
	e := NewBinary(OpAdd, NewColRef(1, "a"), NewColRef(2, "b"))
	bound, err := Bind(e, map[ColumnID]int{1: 1, 2: 0})
	if err != nil {
		t.Fatal(err)
	}
	v := mustEval(t, bound, env(sqltypes.NewInt(10), sqltypes.NewInt(1)))
	if v.Int() != 11 {
		t.Errorf("bound eval = %v", v)
	}
	// Original remains unbound.
	if _, err := eval(e, env(sqltypes.NewInt(1), sqltypes.NewInt(2))); err == nil {
		t.Error("original was mutated by Bind")
	}
	if _, err := Bind(e, map[ColumnID]int{1: 0}); err == nil {
		t.Error("missing layout entry accepted")
	}
}

func TestSubstitute(t *testing.T) {
	e := NewBinary(OpAdd, NewColRef(1, "a"), NewColRef(2, "b"))
	out := Substitute(e, map[ColumnID]Expr{1: i64(100)})
	cs := Cols(out)
	if cs.Has(1) || !cs.Has(2) {
		t.Errorf("Substitute left cols %v", cs)
	}
}

func TestReplaceColsWithParams(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpEq, NewColRef(1, "remote_k"), NewColRef(50, "outer_k")),
		NewBinary(OpGt, NewColRef(2, "remote_v"), NewColRef(50, "outer_k")))
	out, params := ReplaceColsWithParams(e, NewColSet(50))
	if len(params) != 1 {
		t.Fatalf("params = %v", params)
	}
	if Cols(out).Has(50) {
		t.Error("outer col still referenced")
	}
	if !HasParams(out) {
		t.Error("no params introduced")
	}
	for name, id := range params {
		if id != 50 || name == "" {
			t.Errorf("bad mapping %s -> %d", name, id)
		}
	}
}

func TestSplitConjoinRoundtrip(t *testing.T) {
	a := NewBinary(OpGt, NewColRef(1, "a"), i64(1))
	b := NewBinary(OpLt, NewColRef(2, "b"), i64(9))
	c := NewBinary(OpEq, NewColRef(3, "c"), i64(5))
	all := Conjoin([]Expr{a, b, c})
	parts := SplitConjuncts(all)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	if Conjoin(nil) != nil {
		t.Error("Conjoin(nil) should be nil")
	}
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil) should be nil")
	}
	if got := Conjoin([]Expr{nil, a, nil}); got != a {
		t.Error("Conjoin should skip nils")
	}
}

func TestFoldConstants(t *testing.T) {
	e := NewBinary(OpAdd, i64(2), NewBinary(OpMul, i64(3), i64(4)))
	folded := FoldConstants(e)
	c, ok := folded.(*Const)
	if !ok || c.Val.Int() != 14 {
		t.Errorf("folded = %v", folded)
	}
	// Column-dependent parts remain.
	e2 := NewBinary(OpAdd, NewColRef(1, "a"), NewBinary(OpMul, i64(3), i64(4)))
	folded2 := FoldConstants(e2).(*Binary)
	if _, ok := folded2.R.(*Const); !ok {
		t.Errorf("subtree not folded: %v", folded2)
	}
	// Division by zero must not fold (error surfaces at runtime).
	e3 := NewBinary(OpDiv, i64(1), i64(0))
	if _, ok := FoldConstants(e3).(*Const); ok {
		t.Error("div-by-zero folded")
	}
	// today() must not fold.
	today, _ := NewFuncCall("today", nil)
	if _, ok := FoldConstants(today).(*Const); ok {
		t.Error("today() folded")
	}
}

func TestExtractEquiJoin(t *testing.T) {
	left := NewColSet(1, 2)
	right := NewColSet(10, 11)
	pred := Conjoin([]Expr{
		NewBinary(OpEq, NewColRef(1, "l1"), NewColRef(10, "r1")),
		NewBinary(OpEq, NewColRef(11, "r2"), NewColRef(2, "l2")), // reversed order
		NewBinary(OpGt, NewColRef(1, "l1"), i64(5)),              // residual
		NewBinary(OpEq, NewColRef(1, "l1"), NewColRef(2, "l2")),  // same side: residual
	})
	pairs, residual := ExtractEquiJoin(pred, left, right)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Left != 1 || pairs[0].Right != 10 {
		t.Errorf("pair0 = %v", pairs[0])
	}
	if pairs[1].Left != 2 || pairs[1].Right != 11 {
		t.Errorf("pair1 = %v", pairs[1])
	}
	if residual == nil || len(SplitConjuncts(residual)) != 2 {
		t.Errorf("residual = %v", residual)
	}
}

func TestIsRemotable(t *testing.T) {
	full := FullRemotable()
	none := RemotableProfile{}
	simple := NewBinary(OpGt, NewColRef(1, "a"), i64(5))
	if !IsRemotable(simple, full) || !IsRemotable(simple, none) {
		t.Error("simple comparison should always be remotable")
	}
	lk := &Like{E: NewColRef(1, "a"), Pattern: str("x%")}
	if !IsRemotable(lk, full) || IsRemotable(lk, none) {
		t.Error("LIKE remotability should follow profile")
	}
	fn, _ := NewFuncCall("upper", []Expr{NewColRef(1, "a")})
	if !IsRemotable(fn, full) || IsRemotable(fn, none) {
		t.Error("func remotability should follow profile")
	}
	unknownFn, _ := NewFuncCall("today", nil)
	if IsRemotable(unknownFn, full) {
		t.Error("today() should not be remotable under full profile")
	}
	ct, _ := NewContains(NewColRef(1, "a"), "word")
	if IsRemotable(ct, full) {
		t.Error("CONTAINS must never be remotable to SQL providers")
	}
	pm := NewBinary(OpEq, NewColRef(1, "a"), NewParam("p0"))
	if !IsRemotable(pm, full) || IsRemotable(pm, none) {
		t.Error("param remotability should follow profile")
	}
}

func TestSingleColumnComparison(t *testing.T) {
	c, op, val, ok := SingleColumnComparison(NewBinary(OpGt, NewColRef(7, "k"), i64(50)))
	if !ok || c.ID != 7 || op != OpGt || val == nil {
		t.Errorf("forward form: %v %v %v %v", c, op, val, ok)
	}
	// Reversed: 50 < k  ==  k > 50
	c, op, _, ok = SingleColumnComparison(NewBinary(OpLt, i64(50), NewColRef(7, "k")))
	if !ok || c.ID != 7 || op != OpGt {
		t.Errorf("reversed form: %v %v %v", c, op, ok)
	}
	// col-col is not single-column.
	if _, _, _, ok := SingleColumnComparison(NewBinary(OpEq, NewColRef(1, "a"), NewColRef(2, "b"))); ok {
		t.Error("col=col accepted")
	}
	// Param counts as a value expression.
	c, op, val, ok = SingleColumnComparison(NewBinary(OpEq, NewColRef(3, "k"), NewParam("x")))
	if !ok || c.ID != 3 || op != OpEq {
		t.Errorf("param form: %v %v %v %v", c, op, val, ok)
	}
	if _, _, _, ok := SingleColumnComparison(i64(1)); ok {
		t.Error("non-comparison accepted")
	}
}

func TestVisitPrune(t *testing.T) {
	e := NewBinary(OpAnd, NewColRef(1, "a"), NewColRef(2, "b"))
	count := 0
	Visit(e, func(Expr) bool {
		count++
		return false // prune immediately
	})
	if count != 1 {
		t.Errorf("visit count = %d", count)
	}
}

func TestRewritePreservesContains(t *testing.T) {
	c, _ := NewContains(NewColRef(1, "doc"), "database")
	out := Rewrite(c, func(n Expr) Expr { return nil })
	c2, ok := out.(*Contains)
	if !ok || c2.Node() == nil {
		t.Error("Rewrite dropped parsed contains query")
	}
}
