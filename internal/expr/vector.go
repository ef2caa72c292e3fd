// Expression evaluation. There is one evaluator: EvalVec evaluates a node
// over the selected rows of a column batch with one kernel per node kind,
// and a predicate (FilterSel) is that kernel plus the selection of its TRUE
// rows. Column references copy, row-independent leaves broadcast, and the
// shapes that dominate query predicates and projections — column-vs-column
// and column-vs-constant comparisons, IS NULL, one-level arithmetic — run
// typed loops over the flat int64/float64/string payloads with NULLs read
// from the validity bitmap, skipping Value boxing and Kind dispatch. Every
// other node, and a typed one whose operands are mixed or generic, runs the
// generic kernel: its children evaluate over the selection, and the node's
// rule is applied to their boxed values row by row, with identical
// semantics (sqltypes.Compare order, three-valued logic, evalArith's
// promotion rules). AND and OR narrow the selection their right side sees
// to the rows their left side leaves undecided, as a row-at-a-time
// evaluator's short circuit would. Callers without a batch — startup
// predicates, access-path bounds, VALUES rows, constant folding, CHECK
// constraints — evaluate a one-row selection.

package expr

import (
	"fmt"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// EvalVec evaluates e once per selected row, writing results densely into
// out: position k receives the k-th selected row's value. out is reset by
// the kernel to exactly len(sel) rows — typed to the result kind when the
// inputs allow it, generic otherwise. sel lists physical row indices into
// cols; out must not be one of cols.
func EvalVec(e Expr, env *Env, cols []rowset.Vec, sel []int, out *rowset.Vec) error {
	switch t := e.(type) {
	case *ColRef:
		if t.pos < 0 {
			return fmt.Errorf("expr: unbound column %s (id %d)", t.Name, t.ID)
		}
		if t.pos >= len(cols) {
			return fmt.Errorf("expr: column %s position %d beyond row of %d", t.Name, t.pos, len(cols))
		}
		copyVecDense(&cols[t.pos], sel, out)
		return nil
	case *Const, *Param:
		v, _, err := leafVal(e, env)
		if err != nil {
			return err
		}
		broadcastDense(v, len(sel), out)
		return nil
	case *Binary:
		if t.Op == OpAnd || t.Op == OpOr {
			return evalLogic(t, env, cols, sel, out)
		}
	}
	return evalNode(e, env, cols, sel, out)
}

// FilterSel appends to dst the members of sel whose rows satisfy pred
// under SQL WHERE semantics (TRUE admits; FALSE and NULL reject), and
// returns dst. sel lists physical row indices into cols; dst must not
// alias sel unless it is sel's own prefix (in-place conjunct chaining
// writes dst[k] with k ≤ the read position, which is safe).
func FilterSel(pred Expr, env *Env, cols []rowset.Vec, sel []int, dst []int) ([]int, error) {
	switch p := pred.(type) {
	case *Binary:
		if p.Op == OpAnd {
			// Conjunction: filter by the left conjunct, then narrow that
			// result by the right — each conjunct scans only survivors.
			// Kleene semantics collapse to this because WHERE rejects both
			// FALSE and NULL.
			mid, err := FilterSel(p.L, env, cols, sel, dst)
			if err != nil {
				return dst, err
			}
			return FilterSel(p.R, env, cols, mid, mid[:0])
		}
		if p.Op.IsComparison() {
			if out, ok, err := filterCompare(p, env, cols, sel, dst); ok || err != nil {
				return out, err
			}
		}
	case *IsNull:
		if pos := boundCol(p.E, cols); pos >= 0 {
			vec := &cols[pos]
			if vec.IsTyped() && !vec.HasNulls() {
				// Every element valid: IS NULL admits nothing, IS NOT NULL
				// admits everything.
				if p.Negate {
					dst = append(dst, sel...)
				}
				return dst, nil
			}
			for _, idx := range sel {
				if !vec.Valid(idx) != p.Negate {
					dst = append(dst, idx)
				}
			}
			return dst, nil
		}
	}
	var v rowset.Vec
	if err := EvalVec(pred, env, cols, sel, &v); err != nil {
		return dst, err
	}
	for k, idx := range sel {
		if Truthy(v.Value(k)) {
			dst = append(dst, idx)
		}
	}
	return dst, nil
}

// oneRow is the one-row selection of callers without a batch. Nothing
// writes a selection it is handed, so it is shared.
var oneRow = []int{0}

// EvalScalar evaluates an expression that reads no column as a one-row
// selection.
func EvalScalar(e Expr, env *Env) (sqltypes.Value, error) {
	if v, isLeaf, err := leafVal(e, env); isLeaf || err != nil {
		return v, err
	}
	var out rowset.Vec
	if err := EvalVec(e, env, nil, oneRow, &out); err != nil {
		return sqltypes.Null, err
	}
	return out.Value(0), nil
}

// FirstRejected returns the index of the first of rows that pred, a
// CHECK constraint, does not admit (see FilterSel), or -1 when it admits
// them all. Each row holds one value per column position pred reads; the
// rows are evaluated as one batch.
func FirstRejected(pred Expr, rows []rowset.Row) (int, error) {
	if len(rows) == 0 {
		return -1, nil
	}
	cols := make([]rowset.Vec, len(rows[0]))
	for j := range cols {
		cols[j].ResetGeneric(len(rows))
		for i, r := range rows {
			cols[j].Gen()[i] = r[j]
		}
	}
	keep, err := FilterSel(pred, &Env{}, cols, ascending(len(rows)), nil)
	if err != nil {
		return 0, err
	}
	for i, idx := range keep {
		if idx != i {
			return i, nil
		}
	}
	if len(keep) < len(rows) {
		return len(keep), nil
	}
	return -1, nil
}

// evalLogic is the AND/OR kernel. The left side decides a row when it is
// FALSE under AND or TRUE under OR; only the other rows reach the right
// side, and the result is a typed BIT column whose NULLs are Kleene's
// unknowns.
func evalLogic(b *Binary, env *Env, cols []rowset.Vec, sel []int, out *rowset.Vec) error {
	var l, r rowset.Vec
	if err := EvalVec(b.L, env, cols, sel, &l); err != nil {
		return err
	}
	or := b.Op == OpOr
	var rest, at []int // the undecided rows, and their positions in sel
	for k, idx := range sel {
		if lb, null := boolOf(l.Value(k)); null || lb != or {
			rest, at = append(rest, idx), append(at, k)
		}
	}
	if err := EvalVec(b.R, env, cols, rest, &r); err != nil {
		return err
	}
	decided := int64(0)
	if or {
		decided = 1
	}
	out.ResetTyped(sqltypes.KindBool, len(sel))
	ox := out.Int64s()
	for k := range ox {
		ox[k] = decided
	}
	for j, k := range at {
		_, lnull := boolOf(l.Value(k))
		switch rb, rnull := boolOf(r.Value(j)); {
		case !rnull && rb == or: // the right side decides
		case lnull || rnull:
			out.SetNull(k)
		default:
			ox[k] = 1 - decided
		}
	}
	return nil
}

// operand is one child of a node as its kernel reads it: a row-independent
// value, a column of the input read through the selection, or the child
// evaluated densely over the selection. Its accessors take the k-th
// selected row's position k and physical index idx.
type operand struct {
	val   sqltypes.Value
	col   *rowset.Vec // an input column
	dense bool        // own holds the child's values
	own   rowset.Vec
}

func (o *operand) resolve(e Expr, env *Env, cols []rowset.Vec, sel []int) error {
	if v, isLeaf, err := leafVal(e, env); isLeaf || err != nil {
		o.val = v
		return err
	}
	if pos := boundCol(e, cols); pos >= 0 {
		o.col = &cols[pos]
		return nil
	}
	o.dense = true
	return EvalVec(e, env, cols, sel, &o.own)
}

// read returns the operand's column (nil for a row-independent value)
// and, for each selected row, the row of the column it is.
func (o *operand) read(sel []int) (*rowset.Vec, []int) {
	switch {
	case o.dense:
		return &o.own, ascending(len(sel))
	case o.col != nil:
		return o.col, sel
	}
	return nil, nil
}

// kind is the operand's typed kind; sqltypes.KindNull for a NULL value or
// a generic column.
func (o *operand) kind() sqltypes.Kind {
	switch {
	case o.dense:
		return o.own.Kind()
	case o.col != nil:
		return o.col.Kind()
	}
	return o.val.Kind()
}

// at is the operand's value for the k-th selected row, physical row idx.
func (o *operand) at(k, idx int) sqltypes.Value {
	switch {
	case o.dense:
		return o.own.Value(k)
	case o.col != nil:
		return o.col.Value(idx)
	}
	return o.val
}

// ascending returns 0, 1, …, n-1: the rows of a column evaluated densely
// over a selection.
func ascending(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// evalNode is the kernel of every node but a column, a leaf and AND/OR:
// the children evaluate over the selection, arithmetic over typed operands
// runs a typed loop, and every other node runs the generic loop, which
// applies the node's rule to its children's boxed values row by row into a
// generic column.
func evalNode(e Expr, env *Env, cols []rowset.Vec, sel []int, out *rowset.Vec) error {
	var two [2]Expr
	kids := two[:0]
	switch t := e.(type) {
	case *Binary:
		kids = append(kids, t.L, t.R)
	case *Unary:
		kids = append(kids, t.E)
	case *IsNull:
		kids = append(kids, t.E)
	case *Like:
		kids = append(kids, t.E, t.Pattern)
	case *InList:
		kids = append(append(kids, t.E), t.List...)
	case *FuncCall:
		kids = t.Args
	case *Contains:
		kids = append(kids, t.Col)
	default:
		return fmt.Errorf("expr: cannot evaluate %T", e)
	}
	var opsBuf [2]operand
	ops := opsBuf[:0]
	if len(kids) > len(opsBuf) {
		ops = make([]operand, 0, len(kids))
	}
	ops = ops[:len(kids)]
	for i, kid := range kids {
		if err := ops[i].resolve(kid, env, cols, sel); err != nil {
			return err
		}
	}
	if b, ok := e.(*Binary); ok && b.Op.IsArith() {
		if done, err := arithTyped(b.Op, &ops[0], &ops[1], sel, out); done || err != nil {
			return err
		}
	}
	args := make([]sqltypes.Value, len(kids))
	out.ResetGeneric(len(sel))
	gen := out.Gen()
	for k, idx := range sel {
		for i := range ops {
			args[i] = ops[i].at(k, idx)
		}
		v, err := applyNode(e, env, args)
		if err != nil {
			return err
		}
		gen[k] = v
	}
	return nil
}

// applyNode is node e's rule over one row's child values.
func applyNode(e Expr, env *Env, args []sqltypes.Value) (sqltypes.Value, error) {
	switch t := e.(type) {
	case *Binary:
		return applyBinary(t.Op, args[0], args[1])
	case *Unary:
		return t.apply(args[0])
	case *IsNull:
		return sqltypes.NewBool(args[0].IsNull() != t.Negate), nil
	case *Like:
		return t.apply(args[0], args[1])
	case *InList:
		return t.apply(args[0], args[1:]), nil
	case *FuncCall:
		return t.apply(env, args)
	default:
		return e.(*Contains).apply(args[0])
	}
}

// arithTyped runs arithmetic over typed operands without boxing, mirroring
// evalArith's dispatch exactly: INT with INT stays INT, date ± INT and
// date − date count days, + concatenates strings, and every other numeric
// pair promotes to FLOAT (BIT included). A NULL value operand makes every
// row NULL. done is false when an operand is a generic column or the kinds
// have no typed loop.
func arithTyped(op Op, l, r *operand, sel []int, out *rowset.Vec) (bool, error) {
	lk, rk := l.kind(), r.kind()
	if !l.dense && l.col == nil && lk == sqltypes.KindNull || !r.dense && r.col == nil && rk == sqltypes.KindNull {
		broadcastDense(sqltypes.Null, len(sel), out)
		return true, nil
	}
	var kind sqltypes.Kind
	switch {
	case lk == sqltypes.KindInt && rk == sqltypes.KindInt:
		kind = sqltypes.KindInt
	case lk == sqltypes.KindDate && rk == sqltypes.KindInt && (op == OpAdd || op == OpSub):
		kind = sqltypes.KindDate
	case lk == sqltypes.KindDate && rk == sqltypes.KindDate && op == OpSub:
		kind = sqltypes.KindInt
	case lk == sqltypes.KindString && rk == sqltypes.KindString && op == OpAdd:
		kind = sqltypes.KindString
	case numericFamily(lk) && numericFamily(rk):
		kind = sqltypes.KindFloat
	default:
		return false, nil
	}
	lv, li := l.read(sel)
	rv, ri := r.read(sel)
	nulls := lv != nil && lv.HasNulls() || rv != nil && rv.HasNulls()
	out.ResetTyped(kind, len(sel))
	switch kind {
	case sqltypes.KindString:
		ls, rs := strSide(lv, li, l.val), strSide(rv, ri, r.val)
		ox := out.Strings()
		for k := range ox {
			if nulls && (ls.null(k) || rs.null(k)) {
				out.SetNull(k)
				continue
			}
			ox[k] = ls.at(k) + rs.at(k)
		}
	case sqltypes.KindFloat:
		ls, rs := floatSide(lv, li, l.val), floatSide(rv, ri, r.val)
		ox := out.Float64s()
		for k := range ox {
			if nulls && (ls.null(k) || rs.null(k)) {
				out.SetNull(k)
				continue
			}
			a, c := ls.at(k), rs.at(k)
			switch op {
			case OpAdd:
				ox[k] = a + c
			case OpSub:
				ox[k] = a - c
			case OpMul:
				ox[k] = a * c
			default:
				v, err := floatDivMod(op, a, c)
				if err != nil {
					return true, err
				}
				ox[k] = v
			}
		}
	default:
		ls, rs := intSide(lv, li, l.val), intSide(rv, ri, r.val)
		ox := out.Int64s()
		for k := range ox {
			if nulls && (ls.null(k) || rs.null(k)) {
				out.SetNull(k)
				continue
			}
			a, c := ls.at(k), rs.at(k)
			switch op {
			case OpAdd:
				ox[k] = a + c
			case OpSub:
				ox[k] = a - c
			case OpMul:
				ox[k] = a * c
			default:
				v, err := intDivMod(op, a, c)
				if err != nil {
					return true, err
				}
				ox[k] = v
			}
		}
	}
	return true, nil
}

// side is one operand of a typed arithmetic loop: element rows[k] of xs,
// NULL where vec says so, for the k-th selected row, or c when xs is nil.
type side[T int64 | float64 | string] struct {
	xs   []T
	vec  *rowset.Vec // set only when it has NULLs
	rows []int
	c    T
}

func (s *side[T]) null(k int) bool { return s.vec != nil && !s.vec.Valid(s.rows[k]) }

// nullsOf is v when it has NULLs, else nil.
func nullsOf(v *rowset.Vec) *rowset.Vec {
	if v.HasNulls() {
		return v
	}
	return nil
}

func (s *side[T]) at(k int) T {
	if s.xs == nil {
		return s.c
	}
	return s.xs[s.rows[k]]
}

func intSide(v *rowset.Vec, rows []int, c sqltypes.Value) side[int64] {
	if v == nil {
		x, _ := c.AsInt()
		return side[int64]{c: x}
	}
	return side[int64]{xs: v.Int64s(), vec: nullsOf(v), rows: rows}
}

func strSide(v *rowset.Vec, rows []int, c sqltypes.Value) side[string] {
	if v == nil {
		return side[string]{c: c.Str()}
	}
	return side[string]{xs: v.Strings(), vec: nullsOf(v), rows: rows}
}

// floatSide reads a numeric operand as FLOAT; an INT or BIT column is
// widened first.
func floatSide(v *rowset.Vec, rows []int, c sqltypes.Value) side[float64] {
	switch {
	case v == nil:
		f, _ := c.AsFloat()
		return side[float64]{c: f}
	case v.Kind() == sqltypes.KindFloat:
		return side[float64]{xs: v.Float64s(), vec: nullsOf(v), rows: rows}
	}
	xs := make([]float64, len(v.Int64s()))
	for i, x := range v.Int64s() {
		xs[i] = float64(x)
	}
	return side[float64]{xs: xs, vec: nullsOf(v), rows: rows}
}

// cmpSatisfied reports whether Compare's result c satisfies op.
func cmpSatisfied(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// satisfied compares unboxed payloads per op; inlined into the selection
// loops, it replaces sqltypes.Compare's kind dispatch.
func satisfied[T int64 | float64 | string](op Op, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// leafVal resolves an expression that does not depend on the current row
// (Const, Param) to its value; ok is false for row-dependent expressions.
func leafVal(e Expr, env *Env) (sqltypes.Value, bool, error) {
	switch t := e.(type) {
	case *Const:
		return t.Val, true, nil
	case *Param:
		v, err := env.param(t.Name)
		return v, true, err
	}
	return sqltypes.Null, false, nil
}

// boundCol returns the position in cols of a bound ColRef, or -1 (for
// other nodes, and for a position cols does not have, which EvalVec
// reports).
func boundCol(e Expr, cols []rowset.Vec) int {
	if cr, ok := e.(*ColRef); ok && cr.pos >= 0 && cr.pos < len(cols) {
		return cr.pos
	}
	return -1
}

// Typed comparison categories: how a (left kind, right kind) pair compares
// under sqltypes.Compare without boxing.
const (
	cmpBoxed = iota // mixed/generic: box and call sqltypes.Compare
	cmpI64          // both int-family with identical Compare payload (int/bool pair, date/date)
	cmpF64          // numeric pair promoted to float64
	cmpStr          // string/string
)

func intFamily(k sqltypes.Kind) bool { return k == sqltypes.KindInt || k == sqltypes.KindBool }

func numericFamily(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindBool || k == sqltypes.KindFloat
}

// classifyCmp picks the typed comparison category for a kind pair. Exactly
// mirrors sqltypes.Compare: int/bool pairs compare by int64 payload, any
// numeric pair involving a float promotes to float64, dates compare by day
// number, strings by byte order — and every other combination (cross-kind
// non-numeric, generic columns) must go through boxed Compare, which orders
// by Kind number.
func classifyCmp(lk, rk sqltypes.Kind) int {
	switch {
	case lk == sqltypes.KindString && rk == sqltypes.KindString:
		return cmpStr
	case lk == sqltypes.KindDate && rk == sqltypes.KindDate:
		return cmpI64
	case intFamily(lk) && intFamily(rk):
		return cmpI64
	case numericFamily(lk) && numericFamily(rk):
		return cmpF64
	default:
		return cmpBoxed
	}
}

// filterCompare handles comparison predicates whose operands are bound
// column references or row-independent leaves. ok is false when the shape
// does not match and the caller must fall back.
func filterCompare(p *Binary, env *Env, cols []rowset.Vec, sel []int, dst []int) ([]int, bool, error) {
	lpos, rpos := boundCol(p.L, cols), boundCol(p.R, cols)
	switch {
	case lpos >= 0 && rpos >= 0:
		lv, rv := &cols[lpos], &cols[rpos]
		switch classifyCmp(lv.Kind(), rv.Kind()) {
		case cmpI64:
			return selectCols(p.Op, lv, rv, lv.Int64s(), rv.Int64s(), sel, dst), true, nil
		case cmpStr:
			return selectCols(p.Op, lv, rv, lv.Strings(), rv.Strings(), sel, dst), true, nil
		case cmpF64:
			l, r := floatSide(lv, sel, sqltypes.Null), floatSide(rv, sel, sqltypes.Null)
			for k, idx := range sel {
				if lv.Valid(idx) && rv.Valid(idx) && satisfied(p.Op, l.at(k), r.at(k)) {
					dst = append(dst, idx)
				}
			}
			return dst, true, nil
		}
		for _, idx := range sel {
			l, r := lv.Value(idx), rv.Value(idx)
			if !l.IsNull() && !r.IsNull() && cmpSatisfied(p.Op, sqltypes.Compare(l, r)) {
				dst = append(dst, idx)
			}
		}
		return dst, true, nil
	case lpos >= 0:
		rval, isLeaf, err := leafVal(p.R, env)
		if err != nil || !isLeaf {
			return dst, isLeaf, err
		}
		if rval.IsNull() {
			return dst, true, nil // col op NULL rejects every row
		}
		return filterColConst(p.Op, &cols[lpos], rval, sel, dst), true, nil
	case rpos >= 0:
		lval, isLeaf, err := leafVal(p.L, env)
		if err != nil || !isLeaf {
			return dst, isLeaf, err
		}
		if lval.IsNull() {
			return dst, true, nil
		}
		return filterColConst(p.Op.Commute(), &cols[rpos], lval, sel, dst), true, nil
	}
	return dst, false, nil
}

// selectCols selects the members of sel whose lx[idx] op rx[idx] holds.
func selectCols[T int64 | float64 | string](op Op, lv, rv *rowset.Vec, lx, rx []T, sel, dst []int) []int {
	nulls := lv.HasNulls() || rv.HasNulls()
	for _, idx := range sel {
		if (!nulls || lv.Valid(idx) && rv.Valid(idx)) && satisfied(op, lx[idx], rx[idx]) {
			dst = append(dst, idx)
		}
	}
	return dst
}

// filterColConst selects rows where `col op const` holds. The headline
// scan+filter kernel.
func filterColConst(op Op, vec *rowset.Vec, cv sqltypes.Value, sel, dst []int) []int {
	switch classifyCmp(vec.Kind(), cv.Kind()) {
	case cmpI64:
		c, _ := cv.AsInt()
		return selectConst(op, vec, vec.Int64s(), c, sel, dst)
	case cmpStr:
		return selectConst(op, vec, vec.Strings(), cv.Str(), sel, dst)
	case cmpF64:
		c, _ := cv.AsFloat()
		if vec.Kind() == sqltypes.KindFloat {
			return selectConst(op, vec, vec.Float64s(), c, sel, dst)
		}
		xs := vec.Int64s() // an INT or BIT column against a FLOAT compares as FLOAT
		for _, idx := range sel {
			if vec.Valid(idx) && satisfied(op, float64(xs[idx]), c) {
				dst = append(dst, idx)
			}
		}
		return dst
	}
	// Mixed kinds or generic column: boxed loop.
	for _, idx := range sel {
		if v := vec.Value(idx); !v.IsNull() && cmpSatisfied(op, sqltypes.Compare(v, cv)) {
			dst = append(dst, idx)
		}
	}
	return dst
}

// selectConst selects the members of sel whose xs[idx] op c holds: over a
// column without NULLs, one loop per operator with the constant hoisted
// out of it.
func selectConst[T int64 | float64 | string](op Op, vec *rowset.Vec, xs []T, c T, sel, dst []int) []int {
	if vec.HasNulls() {
		for _, idx := range sel {
			if vec.Valid(idx) && satisfied(op, xs[idx], c) {
				dst = append(dst, idx)
			}
		}
		return dst
	}
	switch op {
	case OpEq:
		for _, idx := range sel {
			if xs[idx] == c {
				dst = append(dst, idx)
			}
		}
	case OpNe:
		for _, idx := range sel {
			if xs[idx] != c {
				dst = append(dst, idx)
			}
		}
	case OpLt:
		for _, idx := range sel {
			if xs[idx] < c {
				dst = append(dst, idx)
			}
		}
	case OpLe:
		for _, idx := range sel {
			if xs[idx] <= c {
				dst = append(dst, idx)
			}
		}
	case OpGt:
		for _, idx := range sel {
			if xs[idx] > c {
				dst = append(dst, idx)
			}
		}
	case OpGe:
		for _, idx := range sel {
			if xs[idx] >= c {
				dst = append(dst, idx)
			}
		}
	}
	return dst
}

// copyVecDense gathers src's selected elements densely into out, preserving
// the typed representation and validity.
func copyVecDense(src *rowset.Vec, sel []int, out *rowset.Vec) {
	out.ResetTyped(src.Kind(), len(sel))
	switch src.Kind() {
	case sqltypes.KindNull:
		gatherDense(out.Gen(), src.Gen(), sel)
		return
	case sqltypes.KindFloat:
		gatherDense(out.Float64s(), src.Float64s(), sel)
	case sqltypes.KindString:
		gatherDense(out.Strings(), src.Strings(), sel)
	default:
		gatherDense(out.Int64s(), src.Int64s(), sel)
	}
	if src.HasNulls() {
		for k, idx := range sel {
			if !src.Valid(idx) {
				out.SetNull(k)
			}
		}
	}
}

func gatherDense[T any](out, xs []T, sel []int) {
	for k, idx := range sel {
		out[k] = xs[idx]
	}
}

// broadcastDense fills out's first n positions with v.
func broadcastDense(v sqltypes.Value, n int, out *rowset.Vec) {
	out.ResetTyped(v.Kind(), n)
	switch v.Kind() {
	case sqltypes.KindNull:
		fill(out.Gen(), v)
	case sqltypes.KindFloat:
		fill(out.Float64s(), v.Float())
	case sqltypes.KindString:
		fill(out.Strings(), v.Str())
	default:
		x, _ := v.AsInt()
		fill(out.Int64s(), x)
	}
}

func fill[T any](out []T, x T) {
	for k := range out {
		out[k] = x
	}
}
