package constraint

import (
	"strings"
	"testing"
	"testing/quick"

	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

func iv(lo, hi int64) Interval {
	return Interval{Lo: sqltypes.NewInt(lo), Hi: sqltypes.NewInt(hi)}
}

func TestIntervalEmptyAndContains(t *testing.T) {
	if Full().Empty() {
		t.Error("full interval empty")
	}
	if !iv(5, 3).Empty() {
		t.Error("inverted interval not empty")
	}
	half := Interval{Lo: sqltypes.NewInt(1), Hi: sqltypes.NewInt(1), LoOpen: true}
	if !half.Empty() {
		t.Error("(1,1] not empty")
	}
	p := Point(sqltypes.NewInt(7))
	if p.Empty() || !p.Contains(sqltypes.NewInt(7)) || p.Contains(sqltypes.NewInt(8)) {
		t.Error("point interval broken")
	}
	if Full().Contains(sqltypes.Null) {
		t.Error("NULL contained")
	}
	open := Interval{Lo: sqltypes.NewInt(50), LoOpen: true, HiUnbounded: true}
	if open.Contains(sqltypes.NewInt(50)) || !open.Contains(sqltypes.NewInt(51)) {
		t.Error("(50,+inf] bounds broken")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := iv(0, 10)
	b := iv(5, 20)
	x := a.Intersect(b)
	if !x.Contains(sqltypes.NewInt(7)) || x.Contains(sqltypes.NewInt(3)) || x.Contains(sqltypes.NewInt(15)) {
		t.Errorf("intersect = %v", x)
	}
	disjoint := iv(0, 1).Intersect(iv(5, 6))
	if !disjoint.Empty() {
		t.Error("disjoint intersect not empty")
	}
	withFull := iv(3, 4).Intersect(Full())
	if withFull.String() != "[3, 4]" {
		t.Errorf("full ∩ = %v", withFull)
	}
}

// The paper's first example: CustomerId > 50 narrows [-inf,+inf] to (50,+inf].
func TestPaperExampleGreaterThan(t *testing.T) {
	d := FullDomain().Intersect(FromComparison(expr.OpGt, sqltypes.NewInt(50)))
	if got := d.String(); got != "(50, +inf)" {
		t.Errorf("domain = %q", got)
	}
	if d.Contains(sqltypes.NewInt(50)) || !d.Contains(sqltypes.NewInt(51)) {
		t.Error("bounds broken")
	}
}

// The paper's second example: CustomerId IN (1,5) OR BETWEEN 50 AND 100
// derives [1,1] ∪ [5,5] ∪ [50,100].
func TestPaperExampleDisjointRanges(t *testing.T) {
	col := expr.NewColRef(1, "CustomerId")
	in := &expr.InList{E: col, List: []expr.Expr{
		expr.NewConst(sqltypes.NewInt(1)), expr.NewConst(sqltypes.NewInt(5)),
	}}
	between := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, col, expr.NewConst(sqltypes.NewInt(50))),
		expr.NewBinary(expr.OpLe, col, expr.NewConst(sqltypes.NewInt(100))))
	pred := expr.NewBinary(expr.OpOr, in, between)
	cd := DerivePredicateDomainTarget(pred)
	if cd == nil || cd.Col != 1 {
		t.Fatalf("derivation failed: %+v", cd)
	}
	if got := cd.Domain.String(); got != "[1, 1] ∪ [5, 5] ∪ [50, 100]" {
		t.Errorf("domain = %q", got)
	}
}

// The paper's static pruning example: domain (50,+inf] ∩ [20,20] = ∅, so
// the predicate reduces to constant false.
func TestPaperExampleStaticPruning(t *testing.T) {
	m := Map{}
	m[1] = FromComparison(expr.OpGt, sqltypes.NewInt(50))
	pred := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "CustomerId"), expr.NewConst(sqltypes.NewInt(20)))
	if m.ApplyPredicate(pred) {
		t.Error("unsatisfiable predicate reported satisfiable")
	}
	m2 := Map{}
	m2[1] = FromComparison(expr.OpGt, sqltypes.NewInt(50))
	ok := m2.ApplyPredicate(expr.NewBinary(expr.OpEq, expr.NewColRef(1, "c"), expr.NewConst(sqltypes.NewInt(60))))
	if !ok {
		t.Error("satisfiable predicate reported unsatisfiable")
	}
	if got := m2[1].String(); got != "[60, 60]" {
		t.Errorf("narrowed domain = %q", got)
	}
}

func TestFromComparisonOperators(t *testing.T) {
	v := sqltypes.NewInt(10)
	cases := map[expr.Op]struct {
		in9, in10, in11 bool
	}{
		expr.OpEq: {false, true, false},
		expr.OpNe: {true, false, true},
		expr.OpLt: {true, false, false},
		expr.OpLe: {true, true, false},
		expr.OpGt: {false, false, true},
		expr.OpGe: {false, true, true},
	}
	for op, want := range cases {
		d := FromComparison(op, v)
		if d.Contains(sqltypes.NewInt(9)) != want.in9 ||
			d.Contains(sqltypes.NewInt(10)) != want.in10 ||
			d.Contains(sqltypes.NewInt(11)) != want.in11 {
			t.Errorf("op %v: %v", op, d)
		}
	}
	if !FromComparison(expr.OpEq, sqltypes.Null).Empty() {
		t.Error("col = NULL should be empty domain")
	}
}

func TestDomainUnionMerges(t *testing.T) {
	a := &Domain{Intervals: []Interval{iv(0, 5)}}
	b := &Domain{Intervals: []Interval{iv(3, 10)}}
	u := a.Union(b)
	if len(u.Intervals) != 1 || u.String() != "[0, 10]" {
		t.Errorf("union = %v", u)
	}
	// Touching intervals merge.
	c := &Domain{Intervals: []Interval{iv(0, 5)}}
	d := &Domain{Intervals: []Interval{iv(5, 9)}}
	if got := c.Union(d).String(); got != "[0, 9]" {
		t.Errorf("touching union = %q", got)
	}
	// Disjoint stay separate.
	e := &Domain{Intervals: []Interval{iv(0, 1)}}
	f := &Domain{Intervals: []Interval{iv(5, 6)}}
	if got := e.Union(f); len(got.Intervals) != 2 {
		t.Errorf("disjoint union = %v", got)
	}
	// Open endpoints at the same value do not merge: [0,5) ∪ (5,9].
	g := &Domain{Intervals: []Interval{{Lo: sqltypes.NewInt(0), Hi: sqltypes.NewInt(5), HiOpen: true}}}
	h := &Domain{Intervals: []Interval{{Lo: sqltypes.NewInt(5), LoOpen: true, Hi: sqltypes.NewInt(9)}}}
	if got := g.Union(h); len(got.Intervals) != 2 {
		t.Errorf("open-endpoint union merged: %v", got)
	}
}

func TestDomainIntersect(t *testing.T) {
	a := &Domain{Intervals: []Interval{iv(0, 10), iv(20, 30)}}
	b := &Domain{Intervals: []Interval{iv(5, 25)}}
	x := a.Intersect(b)
	if x.String() != "[5, 10] ∪ [20, 25]" {
		t.Errorf("intersect = %q", x)
	}
	empty := a.Intersect(&Domain{Intervals: []Interval{iv(50, 60)}})
	if !empty.Empty() {
		t.Error("disjoint domains intersect non-empty")
	}
	if empty.String() != "∅" {
		t.Errorf("empty render = %q", empty.String())
	}
}

func TestApplyPredicateAccumulates(t *testing.T) {
	m := Map{}
	col := expr.NewColRef(3, "k")
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpGe, col, expr.NewConst(sqltypes.NewInt(10))),
		expr.NewBinary(expr.OpLt, col, expr.NewConst(sqltypes.NewInt(20))),
	})
	if !m.ApplyPredicate(pred) {
		t.Fatal("satisfiable rejected")
	}
	if got := m[3].String(); got != "[10, 20)" {
		t.Errorf("domain = %q", got)
	}
	// Parameterized conjuncts contribute nothing but do not fail.
	m2 := Map{}
	p := expr.NewBinary(expr.OpEq, col, expr.NewParam("x"))
	if !m2.ApplyPredicate(p) {
		t.Error("parameterized predicate rejected")
	}
	if _, ok := m2[3]; ok {
		t.Error("parameterized predicate derived a domain")
	}
}

func TestDeriveInListWithNonConst(t *testing.T) {
	col := expr.NewColRef(1, "k")
	in := &expr.InList{E: col, List: []expr.Expr{expr.NewParam("x")}}
	if DerivePredicateDomainTarget(in) != nil {
		t.Error("non-const IN derived a domain")
	}
	neg := &expr.InList{E: col, List: []expr.Expr{expr.NewConst(sqltypes.NewInt(1))}, Negate: true}
	if DerivePredicateDomainTarget(neg) != nil {
		t.Error("NOT IN derived a domain")
	}
}

func TestDeriveOrDifferentColumns(t *testing.T) {
	a := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(1)))
	b := expr.NewBinary(expr.OpEq, expr.NewColRef(2, "b"), expr.NewConst(sqltypes.NewInt(2)))
	if DerivePredicateDomainTarget(expr.NewBinary(expr.OpOr, a, b)) != nil {
		t.Error("OR across columns derived a domain")
	}
	// AND across columns: one-sided derivation is allowed and sound.
	cd := DerivePredicateDomainTarget(expr.NewBinary(expr.OpAnd, a, b))
	if cd != nil {
		t.Error("AND across columns should not pick a single side here")
	}
}

func TestStartupPredicate(t *testing.T) {
	// Member holds (50, 100]; parameter @cid.
	d := &Domain{Intervals: []Interval{{Lo: sqltypes.NewInt(50), LoOpen: true, Hi: sqltypes.NewInt(100)}}}
	p := StartupPredicate(d, expr.OpEq, expr.NewParam("cid"))
	test := func(p expr.Expr, v int64) bool {
		got, err := expr.EvalScalar(p, &expr.Env{Params: map[string]sqltypes.Value{"cid": sqltypes.NewInt(v)}})
		if err != nil {
			t.Fatal(err)
		}
		return expr.Truthy(got)
	}
	eval := func(v int64) bool { return test(p, v) }
	if eval(50) || !eval(51) || !eval(100) || eval(101) {
		t.Errorf("startup predicate bounds broken: %s", p)
	}
	// Multi-interval domain.
	d2 := &Domain{Intervals: []Interval{Point(sqltypes.NewInt(1)), iv(50, 60)}}
	p2 := StartupPredicate(d2, expr.OpEq, expr.NewParam("cid"))
	ok1, ok2, ok3 := test(p2, 1), test(p2, 55), test(p2, 10)
	if !ok1 || !ok2 || ok3 {
		t.Errorf("multi-interval startup broken: %s", p2)
	}
	// Full domain → nothing to prune with; empty → constant false.
	if p := StartupPredicate(FullDomain(), expr.OpEq, expr.NewParam("x")); p != nil {
		t.Errorf("full-domain startup should be nil, got %s", p)
	}
	pFalse := StartupPredicate(EmptyDomain(), expr.OpEq, expr.NewParam("x"))
	v2, _ := expr.EvalScalar(pFalse, &expr.Env{})
	if v2.Bool() {
		t.Error("empty-domain startup should be false")
	}
}

func TestMapCloneAndDescribe(t *testing.T) {
	m := Map{1: FromComparison(expr.OpGt, sqltypes.NewInt(5))}
	c := m.Clone()
	c[2] = FullDomain()
	if _, ok := m[2]; ok {
		t.Error("Clone aliased map")
	}
	s := Describe(Map{2: FullDomain(), 1: FromComparison(expr.OpEq, sqltypes.NewInt(3))})
	if !strings.HasPrefix(s, "col1:") || !strings.Contains(s, "col2:") {
		t.Errorf("Describe = %q", s)
	}
	if m.DomainOf(99).Empty() {
		t.Error("unknown column should default to full domain")
	}
}

// Property: for random interval pairs, Contains(v) on the intersection
// equals Contains(v) on both operands.
func TestIntersectSemanticsProperty(t *testing.T) {
	f := func(alo, ahi, blo, bhi, v int8, aLoOpen, aHiOpen bool) bool {
		a := Interval{Lo: sqltypes.NewInt(int64(alo)), Hi: sqltypes.NewInt(int64(ahi)), LoOpen: aLoOpen, HiOpen: aHiOpen}
		b := iv(int64(blo), int64(bhi))
		x := a.Intersect(b)
		val := sqltypes.NewInt(int64(v))
		return x.Contains(val) == (a.Contains(val) && b.Contains(val))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Union preserves membership.
func TestUnionSemanticsProperty(t *testing.T) {
	f := func(alo, ahi, blo, bhi, v int8) bool {
		a := &Domain{Intervals: []Interval{iv(int64(alo), int64(ahi))}}
		b := &Domain{Intervals: []Interval{iv(int64(blo), int64(bhi))}}
		a.normalize()
		b.normalize()
		u := a.Union(b)
		val := sqltypes.NewInt(int64(v))
		return u.Contains(val) == (a.Contains(val) || b.Contains(val))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
