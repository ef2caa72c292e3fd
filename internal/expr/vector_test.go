package expr

import (
	"strings"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// differential harness: FilterSel and EvalVec over typed columns must
// agree with the generic kernels over the same values in generic columns
// (testCols(false)), which no typed loop reads.

// filterGeneric is FilterSel's reference: pred's value from the generic
// kernels, its TRUE rows selected.
func filterGeneric(t *testing.T, pred Expr, env *Env, sel []int) []int {
	t.Helper()
	var v rowset.Vec
	if err := EvalVec(pred, env, testCols(false), sel, &v); err != nil {
		t.Fatalf("generic eval of %s: %v", pred, err)
	}
	var want []int
	for k, idx := range sel {
		if Truthy(v.Value(k)) {
			want = append(want, idx)
		}
	}
	return want
}

// buildVecs loads column-major boxed values into a batch's columns, typed
// (per kinds) or generic, and returns the vectors.
func buildVecs(valsByCol [][]sqltypes.Value, kinds []sqltypes.Kind, typed bool) []rowset.Vec {
	n := len(valsByCol[0])
	b := rowset.NewBatch(n)
	if typed {
		b.ResetTyped(kinds)
	} else {
		b.Reset(len(valsByCol))
	}
	row := make(rowset.Row, len(valsByCol))
	for i := 0; i < n; i++ {
		for j, col := range valsByCol {
			row[j] = col[i]
		}
		b.AppendRow(row)
	}
	return b.Cols()
}

// testColValues builds the boxed source data:
// col0: ints 0..9 with NULLs at 3 and 7; col1: constant 5 with NULL at 4;
// col2: strings; col3: floats i+0.5 with NULL at 6; col4: dates.
func testColValues() ([][]sqltypes.Value, []sqltypes.Kind) {
	n := 10
	c0 := make([]sqltypes.Value, n)
	c1 := make([]sqltypes.Value, n)
	c2 := make([]sqltypes.Value, n)
	c3 := make([]sqltypes.Value, n)
	c4 := make([]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		c0[i] = sqltypes.NewInt(int64(i))
		c1[i] = sqltypes.NewInt(5)
		c2[i] = sqltypes.NewString(string(rune('a' + i)))
		c3[i] = sqltypes.NewFloat(float64(i) + 0.5)
		c4[i] = sqltypes.NewDateDays(int64(20000 + i))
	}
	c0[3], c0[7] = sqltypes.Null, sqltypes.Null
	c1[4] = sqltypes.Null
	c3[6] = sqltypes.Null
	return [][]sqltypes.Value{c0, c1, c2, c3, c4},
		[]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat, sqltypes.KindDate}
}

func testCols(typed bool) []rowset.Vec {
	vals, kinds := testColValues()
	return buildVecs(vals, kinds, typed)
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func modeName(typed bool) string {
	if typed {
		return "typed"
	}
	return "generic"
}

func TestFilterSelMatchesRowPath(t *testing.T) {
	env := &Env{Params: map[string]sqltypes.Value{"p": sqltypes.NewInt(6)}}
	col0 := BoundColRef(1, "a", 0)
	col1 := BoundColRef(2, "b", 1)
	col2 := BoundColRef(3, "s", 2)
	col3 := BoundColRef(4, "f", 3)
	col4 := BoundColRef(5, "d", 4)
	preds := []Expr{
		NewBinary(OpLt, col0, NewConst(sqltypes.NewInt(5))), // int col < int const
		NewBinary(OpGe, NewConst(sqltypes.NewInt(4)), col0), // const >= col
		NewBinary(OpEq, col0, col1),                         // col = col (i64)
		NewBinary(OpLt, col0, NewParam("p")),                // col < @param
		NewBinary(OpNe, col0, NewConst(sqltypes.Null)),      // col <> NULL: empty
		&IsNull{E: col0},               // IS NULL
		&IsNull{E: col0, Negate: true}, // IS NOT NULL
		NewBinary(OpAnd, NewBinary(OpGt, col0, NewConst(sqltypes.NewInt(1))), NewBinary(OpLt, col0, col1)),
		NewBinary(OpOr, NewBinary(OpLt, col0, NewConst(sqltypes.NewInt(2))), NewBinary(OpGt, col0, NewConst(sqltypes.NewInt(8)))),
		&Like{E: col2, Pattern: NewConst(sqltypes.NewString("_"))}, // fallback shape
		NewBinary(OpAnd, NewBinary(OpAnd, NewBinary(OpGe, col0, NewConst(sqltypes.NewInt(1))),
			NewBinary(OpLe, col0, NewConst(sqltypes.NewInt(8)))), &IsNull{E: col1, Negate: true}),
		// Typed-kernel shapes: float col vs const, float col vs int col
		// (cross-kind promotion), int col vs float const, string col vs
		// const and col-vs-col, date col vs date const, col vs col dates.
		NewBinary(OpGt, col3, NewConst(sqltypes.NewFloat(4.0))),
		NewBinary(OpLt, col3, col0),
		NewBinary(OpGe, col0, NewConst(sqltypes.NewFloat(2.5))),
		NewBinary(OpGt, col2, NewConst(sqltypes.NewString("d"))),
		NewBinary(OpLe, NewConst(sqltypes.NewString("f")), col2),
		NewBinary(OpEq, col2, col2),
		NewBinary(OpGe, col4, NewConst(sqltypes.NewDateDays(20004))),
		NewBinary(OpLt, col4, col4),
		// Cross-kind non-numeric (string col vs int const): boxed Kind order.
		NewBinary(OpGt, col2, NewConst(sqltypes.NewInt(3))),
	}
	for _, typed := range []bool{false, true} {
		cols := testCols(typed)
		for _, sel := range [][]int{identity(10), {0, 2, 4, 6, 8}, {}} {
			for i, pred := range preds {
				want := filterGeneric(t, pred, env, sel)
				got, err := FilterSel(pred, env, cols, sel, nil)
				if err != nil {
					t.Fatalf("%s pred %d: %v", modeName(typed), i, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s pred %d (%s) sel=%v: got %v want %v", modeName(typed), i, pred, sel, got, want)
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s pred %d (%s): got %v want %v", modeName(typed), i, pred, got, want)
					}
				}
			}
		}
	}
}

func TestFilterSelInPlaceConjunct(t *testing.T) {
	// The AND path narrows its own output in place; verify no corruption
	// across a long conjunction.
	env := &Env{}
	col0 := BoundColRef(1, "a", 0)
	pred := NewBinary(OpAnd,
		NewBinary(OpAnd, NewBinary(OpGe, col0, NewConst(sqltypes.NewInt(0))), NewBinary(OpLe, col0, NewConst(sqltypes.NewInt(9)))),
		NewBinary(OpNe, col0, NewConst(sqltypes.NewInt(5))))
	for _, typed := range []bool{false, true} {
		got, err := FilterSel(pred, env, testCols(typed), identity(10), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := filterGeneric(t, pred, env, identity(10))
		if len(got) != len(want) {
			t.Fatalf("%s: got %v want %v", modeName(typed), got, want)
		}
	}
}

func TestEvalVec(t *testing.T) {
	env := &Env{Params: map[string]sqltypes.Value{"p": sqltypes.NewInt(100)}}
	col0 := BoundColRef(1, "a", 0)
	col1 := BoundColRef(2, "b", 1)
	col2 := BoundColRef(3, "s", 2)
	col3 := BoundColRef(4, "f", 3)
	col4 := BoundColRef(5, "d", 4)
	exprs := []Expr{
		col0,                          // copy (typed gather)
		col2,                          // string copy
		col3,                          // float copy with NULL
		NewConst(sqltypes.NewInt(42)), // broadcast
		NewParam("p"),                 // broadcast
		NewBinary(OpAdd, col0, NewConst(sqltypes.NewInt(1))),      // int arith
		NewBinary(OpMul, col0, col1),                              // int col×col with NULLs
		NewBinary(OpSub, col3, NewConst(sqltypes.NewFloat(0.5))),  // float arith
		NewBinary(OpDiv, col3, col0),                              // float promote int col... div-by-zero? col0[0]=0 → but col3/col0: float path, c==0 at row 0
		NewBinary(OpAdd, col2, NewConst(sqltypes.NewString("!"))), // concat
		NewBinary(OpAdd, col4, NewConst(sqltypes.NewInt(7))),      // date + int
		NewBinary(OpSub, col4, col4),                              // date - date
		NewBinary(OpMod, col0, NewConst(sqltypes.NewInt(3))),      // int mod
		NewBinary(OpAdd, NewConst(sqltypes.Null), col0),           // NULL operand broadcast
	}
	sels := [][]int{{1, 2, 5, 9}, identity(10)}
	generic := testCols(false)
	for _, typed := range []bool{false, true} {
		cols := testCols(typed)
		out, ref := new(rowset.Vec), new(rowset.Vec)
		for i, e := range exprs {
			for _, sel := range sels {
				vecErr := EvalVec(e, env, cols, sel, out)
				refErr := EvalVec(e, env, generic, sel, ref)
				if (vecErr != nil) != (refErr != nil) {
					t.Fatalf("%s expr %d (%s): err %v, generic err %v", modeName(typed), i, e, vecErr, refErr)
				}
				if refErr != nil {
					if vecErr.Error() != refErr.Error() {
						t.Fatalf("%s expr %d: error text diverged: %q, generic %q", modeName(typed), i, vecErr, refErr)
					}
					continue
				}
				for k, idx := range sel {
					got, want := out.Value(k), ref.Value(k)
					if sqltypes.Compare(got, want) != 0 || got.IsNull() != want.IsNull() || (!got.IsNull() && got.Kind() != want.Kind()) {
						t.Fatalf("%s expr %d (%s) row %d: got %v (%v) want %v (%v)",
							modeName(typed), i, e, idx, got, got.Kind(), want, want.Kind())
					}
				}
			}
		}
	}
}

func TestEvalVecDivZeroErrors(t *testing.T) {
	// Typed integer division by a zero constant must produce the generic
	// kernel's exact error.
	cols := testCols(true)
	env := &Env{}
	col0 := BoundColRef(1, "a", 0)
	e := NewBinary(OpDiv, col0, NewConst(sqltypes.NewInt(0)))
	out := new(rowset.Vec)
	err := EvalVec(e, env, cols, []int{0, 1}, out)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want division-by-zero error, got %v", err)
	}
}

func TestVecDegradeMixedKinds(t *testing.T) {
	// A typed column that receives a mismatched kind degrades to generic
	// and preserves the already-written prefix (including NULLs).
	b := rowset.NewBatch(8)
	b.ResetTyped([]sqltypes.Kind{sqltypes.KindInt})
	v := b.Col(0)
	b.AppendRow(rowset.Row{sqltypes.NewInt(7)})
	b.AppendRow(rowset.Row{sqltypes.Null})
	b.AppendRow(rowset.Row{sqltypes.NewString("x")}) // degrade point
	b.AppendRow(rowset.Row{sqltypes.NewFloat(1.5)})
	if v.IsTyped() {
		t.Fatal("vec should have degraded to generic mode")
	}
	want := []sqltypes.Value{sqltypes.NewInt(7), sqltypes.Null, sqltypes.NewString("x"), sqltypes.NewFloat(1.5)}
	for i, w := range want {
		if g := v.Value(i); sqltypes.Compare(g, w) != 0 || g.Kind() != w.Kind() {
			t.Fatalf("row %d: got %v (%v) want %v (%v)", i, g, g.Kind(), w, w.Kind())
		}
	}
}
