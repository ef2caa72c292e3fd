package expr

import (
	"fmt"
	"strings"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// row is one input row and the environment an expression is evaluated
// under.
type row struct {
	Env
	vals []sqltypes.Value
}

func env(vals ...sqltypes.Value) *row {
	return &row{Env: Env{Today: sqltypes.NewDate(2004, 6, 15)}, vals: vals}
}

func col(id ColumnID, pos int) *ColRef { return BoundColRef(id, "", pos) }

func i64(v int64) *Const   { return NewConst(sqltypes.NewInt(v)) }
func str(v string) *Const  { return NewConst(sqltypes.NewString(v)) }
func f64(v float64) *Const { return NewConst(sqltypes.NewFloat(v)) }
func null() *Const         { return NewConst(sqltypes.Null) }
func boolc(v bool) *Const  { return NewConst(sqltypes.NewBool(v)) }

// eval runs e through EvalVec at batch sizes 1 and 3: the row repeated,
// each copy after a row of NULLs the selection skips, typed columns where
// the row's values have a kind. Every result must agree; eval returns the
// first, or the error.
func eval(e Expr, r *row) (sqltypes.Value, error) {
	var first sqltypes.Value
	for _, n := range []int{1, 3} {
		vals := make([][]sqltypes.Value, len(r.vals))
		kinds := make([]sqltypes.Kind, len(r.vals))
		for j, v := range r.vals {
			kinds[j] = v.Kind()
			for range n {
				vals[j] = append(vals[j], sqltypes.Null, v)
			}
		}
		var cols []rowset.Vec
		if len(vals) > 0 {
			cols = buildVecs(vals, kinds, true)
		}
		sel := make([]int, n)
		for k := range sel {
			sel[k] = 2*k + 1
		}
		var out rowset.Vec
		if err := EvalVec(e, &r.Env, cols, sel, &out); err != nil {
			return sqltypes.Null, err
		}
		for k := range sel {
			if n == 1 && k == 0 {
				first = out.Value(0)
				continue
			}
			if got := out.Value(k); got.Kind() != first.Kind() || sqltypes.Compare(got, first) != 0 {
				return sqltypes.Null, fmt.Errorf("row %d of %d is %v, row 0 of 1 %v", k, n, got, first)
			}
		}
	}
	return first, nil
}

func mustEval(t *testing.T, e Expr, r *row) sqltypes.Value {
	t.Helper()
	v, err := eval(e, r)
	if err != nil {
		t.Fatalf("eval(%s): %v", e, err)
	}
	return v
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   Op
		l, r int64
		want bool
	}{
		{OpEq, 1, 1, true}, {OpEq, 1, 2, false},
		{OpNe, 1, 2, true}, {OpNe, 2, 2, false},
		{OpLt, 1, 2, true}, {OpLt, 2, 2, false},
		{OpLe, 2, 2, true}, {OpLe, 3, 2, false},
		{OpGt, 3, 2, true}, {OpGt, 2, 2, false},
		{OpGe, 2, 2, true}, {OpGe, 1, 2, false},
	}
	for _, c := range cases {
		got := mustEval(t, NewBinary(c.op, i64(c.l), i64(c.r)), env())
		if got.Bool() != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.l, c.op, c.r, got.Bool(), c.want)
		}
	}
}

func TestComparisonWithNullIsNull(t *testing.T) {
	got := mustEval(t, NewBinary(OpEq, i64(1), null()), env())
	if !got.IsNull() {
		t.Errorf("1 = NULL should be NULL, got %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	if v := mustEval(t, NewBinary(OpAdd, i64(2), i64(3)), env()); v.Int() != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := mustEval(t, NewBinary(OpMul, i64(4), f64(0.5)), env()); v.Float() != 2.0 {
		t.Errorf("4*0.5 = %v", v)
	}
	if v := mustEval(t, NewBinary(OpMod, i64(7), i64(3)), env()); v.Int() != 1 {
		t.Errorf("7%%3 = %v", v)
	}
	if v := mustEval(t, NewBinary(OpAdd, str("ab"), str("cd")), env()); v.Str() != "abcd" {
		t.Errorf("string concat = %v", v)
	}
	if _, err := eval(NewBinary(OpDiv, i64(1), i64(0)), env()); err == nil {
		t.Error("division by zero should error")
	}
}

func TestDateArithmetic(t *testing.T) {
	d := NewConst(sqltypes.NewDate(2004, 6, 15))
	got := mustEval(t, NewBinary(OpSub, d, i64(2)), env())
	if got.Time().Format("2006-01-02") != "2004-06-13" {
		t.Errorf("date-2 = %v", got.Display())
	}
	d2 := NewConst(sqltypes.NewDate(2004, 6, 10))
	diff := mustEval(t, NewBinary(OpSub, d, d2), env())
	if diff.Int() != 5 {
		t.Errorf("date-date = %v", diff)
	}
}

func TestKleeneLogic(t *testing.T) {
	tr, fa, nu := boolc(true), boolc(false), null()
	cases := []struct {
		op   Op
		l, r Expr
		want string // "t", "f", "n"
	}{
		{OpAnd, tr, tr, "t"}, {OpAnd, tr, fa, "f"}, {OpAnd, fa, nu, "f"},
		{OpAnd, nu, fa, "f"}, {OpAnd, tr, nu, "n"}, {OpAnd, nu, nu, "n"},
		{OpOr, fa, fa, "f"}, {OpOr, fa, tr, "t"}, {OpOr, tr, nu, "t"},
		{OpOr, nu, tr, "t"}, {OpOr, fa, nu, "n"}, {OpOr, nu, nu, "n"},
	}
	for i, c := range cases {
		got := mustEval(t, NewBinary(c.op, c.l, c.r), env())
		var s string
		switch {
		case got.IsNull():
			s = "n"
		case got.Bool():
			s = "t"
		default:
			s = "f"
		}
		if s != c.want {
			t.Errorf("case %d (%s): got %s, want %s", i, c.op, s, c.want)
		}
	}
}

func TestNotAndNeg(t *testing.T) {
	if v := mustEval(t, NewNot(boolc(true)), env()); v.Bool() {
		t.Error("NOT true")
	}
	if v := mustEval(t, NewNot(null()), env()); !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
	if v := mustEval(t, NewNeg(i64(5)), env()); v.Int() != -5 {
		t.Error("-5")
	}
	if v := mustEval(t, NewNeg(f64(2.5)), env()); v.Float() != -2.5 {
		t.Error("-2.5")
	}
}

func TestIsNull(t *testing.T) {
	if v := mustEval(t, &IsNull{E: null()}, env()); !v.Bool() {
		t.Error("NULL IS NULL")
	}
	if v := mustEval(t, &IsNull{E: i64(1), Negate: true}, env()); !v.Bool() {
		t.Error("1 IS NOT NULL")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Seattle", "Sea%", true},
		{"Seattle", "%ttle", true},
		{"Seattle", "S_attle", true},
		{"Seattle", "seattle", true}, // case-insensitive
		{"Portland", "Sea%", false},
		{"abc", "a%c", true},
		{"abc", "%", true},
		{"", "%", true},
		{"abc", "a_", false},
		{"aXbXc", "a%b%c", true},
		{"abcabd", "%abd", true},
		{"ab", "a%%b", true},
		{"abc", "%b", false},
		{"mississippi", "m%iss%pi", true},
		{"ab", "_%_", true},
		{"a", "_%_", false},
	}
	for _, c := range cases {
		got := mustEval(t, &Like{E: str(c.s), Pattern: str(c.p)}, env())
		if got.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, got.Bool(), c.want)
		}
	}
	if v := mustEval(t, &Like{E: str("x"), Pattern: str("y"), Negate: true}, env()); !v.Bool() {
		t.Error("NOT LIKE")
	}
	if v := mustEval(t, &Like{E: null(), Pattern: str("%")}, env()); !v.IsNull() {
		t.Error("NULL LIKE should be NULL")
	}
	// Eight wildcards against a long run of a's that fails only at the
	// pattern's last character: a matcher that retries every suffix at each
	// % takes time exponential in the wildcards; backtracking to the last %
	// alone keeps it O(len(s)·len(pattern)).
	long := str(strings.Repeat("a", 10000))
	if v := mustEval(t, &Like{E: long, Pattern: str("%a%a%a%a%a%a%a%b")}, env()); v.Bool() {
		t.Error("a run of a's matched a pattern ending in b")
	}
	if v := mustEval(t, &Like{E: long, Pattern: str("%a%a%a%a%a%a%a%a")}, env()); !v.Bool() {
		t.Error("a run of a's missed eight a's between wildcards")
	}
}

func TestInList(t *testing.T) {
	in := &InList{E: i64(5), List: []Expr{i64(1), i64(5)}}
	if v := mustEval(t, in, env()); !v.Bool() {
		t.Error("5 IN (1,5)")
	}
	notIn := &InList{E: i64(7), List: []Expr{i64(1), i64(5)}}
	if v := mustEval(t, notIn, env()); v.Bool() {
		t.Error("7 IN (1,5)")
	}
	withNull := &InList{E: i64(7), List: []Expr{i64(1), null()}}
	if v := mustEval(t, withNull, env()); !v.IsNull() {
		t.Error("7 IN (1,NULL) should be NULL")
	}
	neg := &InList{E: i64(7), List: []Expr{i64(1)}, Negate: true}
	if v := mustEval(t, neg, env()); !v.Bool() {
		t.Error("7 NOT IN (1)")
	}
}

func TestColRefAndParam(t *testing.T) {
	e := NewBinary(OpAdd, col(1, 0), col(2, 1))
	v := mustEval(t, e, env(sqltypes.NewInt(3), sqltypes.NewInt(4)))
	if v.Int() != 7 {
		t.Errorf("col+col = %v", v)
	}
	if _, err := eval(NewColRef(9, "x"), env()); err == nil {
		t.Error("unbound ColRef should error")
	}
	en := env()
	en.Params = map[string]sqltypes.Value{"customerId": sqltypes.NewInt(42)}
	if v := mustEval(t, NewParam("customerId"), en); v.Int() != 42 {
		t.Errorf("@customerId = %v", v)
	}
	if _, err := eval(NewParam("missing"), en); err == nil {
		t.Error("missing param should error")
	}
}

func TestFunctions(t *testing.T) {
	mk := func(name string, args ...Expr) Expr {
		f, err := NewFuncCall(name, args)
		if err != nil {
			t.Fatalf("NewFuncCall(%s): %v", name, err)
		}
		return f
	}
	en := env()
	if v := mustEval(t, mk("today"), en); v.Time().Format("2006-01-02") != "2004-06-15" {
		t.Errorf("today() = %v", v.Display())
	}
	// The paper's §2.4 pattern: date(today(), -2)
	if v := mustEval(t, mk("date", mk("today"), i64(-2)), en); v.Display() != "2004-06-13" {
		t.Errorf("date(today(),-2) = %v", v.Display())
	}
	if v := mustEval(t, mk("year", NewConst(sqltypes.NewDate(1995, 3, 1))), en); v.Int() != 1995 {
		t.Errorf("year = %v", v)
	}
	if v := mustEval(t, mk("month", NewConst(sqltypes.NewDate(1995, 3, 1))), en); v.Int() != 3 {
		t.Errorf("month = %v", v)
	}
	if v := mustEval(t, mk("len", str("hello")), en); v.Int() != 5 {
		t.Errorf("len = %v", v)
	}
	if v := mustEval(t, mk("upper", str("abc")), en); v.Str() != "ABC" {
		t.Errorf("upper = %v", v)
	}
	if v := mustEval(t, mk("lower", str("ABC")), en); v.Str() != "abc" {
		t.Errorf("lower = %v", v)
	}
	if v := mustEval(t, mk("substring", str("heterogeneous"), i64(1), i64(6)), en); v.Str() != "hetero" {
		t.Errorf("substring = %v", v)
	}
	if v := mustEval(t, mk("substring", str("abc"), i64(10), i64(2)), en); v.Str() != "" {
		t.Errorf("substring clamp = %v", v)
	}
	if v := mustEval(t, mk("abs", i64(-4)), en); v.Int() != 4 {
		t.Errorf("abs = %v", v)
	}
	if v := mustEval(t, mk("round", f64(3.14159), i64(2)), en); v.Float() != 3.14 {
		t.Errorf("round = %v", v)
	}
	if v := mustEval(t, mk("coalesce", null(), i64(9)), en); v.Int() != 9 {
		t.Errorf("coalesce = %v", v)
	}
	if v := mustEval(t, mk("len", null()), en); !v.IsNull() {
		t.Error("len(NULL) should be NULL")
	}
	if _, err := NewFuncCall("nosuchfunc", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := NewFuncCall("len", nil); err == nil {
		t.Error("wrong arity accepted")
	}
	if !IsKnownFunc("DATE") || IsKnownFunc("nope") {
		t.Error("IsKnownFunc")
	}
}

func TestContainsNaiveEval(t *testing.T) {
	c, err := NewContains(col(1, 0), `"parallel database" OR run`)
	if err != nil {
		t.Fatal(err)
	}
	v := mustEval(t, c, env(sqltypes.NewString("a parallel database survey")))
	if !v.Bool() {
		t.Error("should match phrase")
	}
	v = mustEval(t, c, env(sqltypes.NewString("she ran fast")))
	if !v.Bool() {
		t.Error("should match inflected run")
	}
	v = mustEval(t, c, env(sqltypes.NewString("nothing here")))
	if v.Bool() {
		t.Error("should not match")
	}
	v = mustEval(t, c, env(sqltypes.Null))
	if v.Bool() {
		t.Error("NULL document should not match")
	}
	if _, err := NewContains(col(1, 0), "AND AND"); err == nil {
		t.Error("bad contains query accepted")
	}
}

func TestTruthyAndFilterSel(t *testing.T) {
	if Truthy(sqltypes.Null) || Truthy(sqltypes.NewBool(false)) || !Truthy(sqltypes.NewBool(true)) {
		t.Error("Truthy broken")
	}
	if Truthy(sqltypes.NewInt(0)) || !Truthy(sqltypes.NewInt(2)) {
		t.Error("Truthy on ints")
	}
	for _, c := range []struct {
		pred Expr
		want int
	}{{NewBinary(OpGt, i64(2), i64(1)), 1}, {NewBinary(OpLt, i64(2), i64(1)), 0}, {NewBinary(OpLt, i64(2), null()), 0}} {
		got, err := FilterSel(c.pred, &Env{}, nil, []int{0}, nil)
		if err != nil || len(got) != c.want {
			t.Errorf("FilterSel(%s) = %v, %v", c.pred, got, err)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpGt, NewColRef(1, "c_custkey"), i64(50)),
		&Like{E: NewColRef(2, "c_city"), Pattern: str("Sea%")})
	s := e.String()
	for _, frag := range []string{"c_custkey", ">", "50", "LIKE", "AND"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestOpCommute(t *testing.T) {
	if OpLt.Commute() != OpGt || OpGe.Commute() != OpLe || OpEq.Commute() != OpEq {
		t.Error("Commute broken")
	}
}
