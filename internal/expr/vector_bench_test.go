package expr

import (
	"fmt"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// benchCols builds nRows of (int, int, float, string) columns with a
// sprinkling of NULLs in the first column, typed or generic boxed.
func benchCols(nRows int, typed bool) []rowset.Vec {
	c0 := make([]sqltypes.Value, nRows)
	c1 := make([]sqltypes.Value, nRows)
	c2 := make([]sqltypes.Value, nRows)
	c3 := make([]sqltypes.Value, nRows)
	for i := 0; i < nRows; i++ {
		c0[i] = sqltypes.NewInt(int64(i % 1000))
		if i%17 == 0 {
			c0[i] = sqltypes.Null
		}
		c1[i] = sqltypes.NewInt(int64(i % 50))
		c2[i] = sqltypes.NewFloat(float64(i%500) + 0.25)
		c3[i] = sqltypes.NewString(fmt.Sprintf("s%03d", i%100))
	}
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString}
	return buildVecs([][]sqltypes.Value{c0, c1, c2, c3}, kinds, typed)
}

// BenchmarkFilterSelTyped measures one batch-filter call per op over 1024
// rows: the typed kernels against the same predicate over the same values
// in generic boxed columns.
func BenchmarkFilterSelTyped(b *testing.B) {
	const nRows = 1024
	env := &Env{}
	col0 := BoundColRef(1, "a", 0)
	col2 := BoundColRef(3, "f", 2)
	// a > 400 AND f < 300.0 — an int and a float comparison, AND-chained.
	pred := NewBinary(OpAnd,
		NewBinary(OpGt, col0, NewConst(sqltypes.NewInt(400))),
		NewBinary(OpLt, col2, NewConst(sqltypes.NewFloat(300.0))))
	sel := identity(nRows)

	for _, typed := range []bool{true, false} {
		cols := benchCols(nRows, typed)
		b.Run(modeName(typed), func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]int, 0, nRows)
			var live int
			for i := 0; i < b.N; i++ {
				out, err := FilterSel(pred, env, cols, sel, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
				live = len(out)
			}
			if live == 0 {
				b.Fatal("filter selected nothing")
			}
		})
	}
}

// BenchmarkEvalVecTyped measures one projection evaluation per op over
// 1024 rows: a + b into a typed output column versus the generic kernel
// over the same values in generic boxed columns.
func BenchmarkEvalVecTyped(b *testing.B) {
	const nRows = 1024
	env := &Env{}
	sum := NewBinary(OpAdd, BoundColRef(1, "a", 0), BoundColRef(2, "b", 1))
	sel := identity(nRows)

	for _, typed := range []bool{true, false} {
		cols := benchCols(nRows, typed)
		b.Run(modeName(typed), func(b *testing.B) {
			b.ReportAllocs()
			var out rowset.Vec
			for i := 0; i < b.N; i++ {
				if err := EvalVec(sum, env, cols, sel, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
