// Vectorized expression kernels. The tree-walking Eval pays an interface
// dispatch per node per row plus an Env per row; these kernels evaluate one
// expression over a whole column batch, with direct loops for the shapes
// that dominate query predicates (column-vs-constant comparisons, IS NULL,
// conjunctions) and a shared-Env gather fallback for everything else. The
// fallback is still far cheaper than one Eval per row: the Env and the row
// buffer are allocated once per batch, not once per row.
//
// When a column is typed (rowset.Vec in unboxed mode) the comparison and
// arithmetic kernels run directly over the flat int64/float64/string
// payloads with NULLs checked through the validity bitmap, skipping Value
// boxing and Kind dispatch entirely. Mixed or generic columns fall back to
// boxed loops with identical semantics (sqltypes.Compare order, three-valued
// logic, evalArith's promotion rules).

package expr

import (
	"strings"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

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

// leafVal resolves an expression that does not depend on the current row
// (Const, Param) to its value; ok is false for row-dependent expressions.
func leafVal(e Expr, env *Env) (sqltypes.Value, bool, error) {
	switch t := e.(type) {
	case *Const:
		return t.Val, true, nil
	case *Param:
		v, err := t.Eval(env)
		return v, true, err
	}
	return sqltypes.Null, false, nil
}

// boundCol returns the column position of a bound ColRef, or -1.
func boundCol(e Expr) int {
	if cr, ok := e.(*ColRef); ok && cr.pos >= 0 {
		return cr.pos
	}
	return -1
}

// BoundColPos returns the input ordinal a bound column reference reads, or
// -1 when e is not a plain column reference. Batch operators use it to
// read aggregate arguments straight out of typed columns.
func BoundColPos(e Expr) int { return boundCol(e) }

// FilterSel appends to dst the members of sel whose rows satisfy pred
// under SQL WHERE semantics (TRUE admits; FALSE and NULL reject), and
// returns dst. sel lists physical row indices into cols; dst must not
// alias sel unless it is sel's own prefix (in-place conjunct chaining
// writes dst[k] with k ≤ the read position, which is safe). rowBuf is a
// caller-owned scratch row at least as wide as cols, used only on the
// fallback path.
func FilterSel(pred Expr, env *Env, cols []rowset.Vec, sel []int, dst []int, rowBuf []sqltypes.Value) ([]int, error) {
	switch p := pred.(type) {
	case *Binary:
		if p.Op == OpAnd {
			// Conjunction: filter by the left conjunct, then narrow that
			// result by the right — each conjunct scans only survivors.
			// Kleene semantics collapse to this because WHERE rejects both
			// FALSE and NULL.
			mid, err := FilterSel(p.L, env, cols, sel, dst, rowBuf)
			if err != nil {
				return dst, err
			}
			return FilterSel(p.R, env, cols, mid, mid[:0], rowBuf)
		}
		if p.Op.IsComparison() {
			if out, ok, err := filterCompare(p, env, cols, sel, dst); ok || err != nil {
				return out, err
			}
		}
	case *IsNull:
		if pos := boundCol(p.E); pos >= 0 {
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
	// Fallback: gather each candidate row and run the interpreter with a
	// reused Env.
	saved := env.Row
	defer func() { env.Row = saved }()
	width := len(cols)
	for _, idx := range sel {
		for j := 0; j < width; j++ {
			rowBuf[j] = cols[j].Value(idx)
		}
		env.Row = rowBuf[:width]
		ok, err := EvalPredicate(pred, env)
		if err != nil {
			return dst, err
		}
		if ok {
			dst = append(dst, idx)
		}
	}
	return dst, nil
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

// numCol reads a numeric column (or broadcast scalar) as float64 without
// boxing; isF selects the payload slice since a reused Vec can carry stale
// slices of both types.
type numCol struct {
	i   []int64
	f   []float64
	c   float64 // broadcast constant when both slices are nil
	isF bool
}

func numColOf(v *rowset.Vec) numCol {
	if v.Kind() == sqltypes.KindFloat {
		return numCol{f: v.Float64s(), isF: true}
	}
	return numCol{i: v.Int64s()}
}

func numConstOf(v sqltypes.Value) numCol {
	f, _ := v.AsFloat()
	return numCol{c: f}
}

func (n numCol) at(idx int) float64 {
	if n.isF {
		return n.f[idx]
	}
	if n.i != nil {
		return float64(n.i[idx])
	}
	return n.c
}

// filterCompare handles comparison predicates whose operands are bound
// column references or row-independent leaves. ok is false when the shape
// does not match and the caller must fall back.
func filterCompare(p *Binary, env *Env, cols []rowset.Vec, sel []int, dst []int) ([]int, bool, error) {
	lpos, rpos := boundCol(p.L), boundCol(p.R)
	switch {
	case lpos >= 0 && rpos >= 0:
		lv, rv := &cols[lpos], &cols[rpos]
		switch classifyCmp(lv.Kind(), rv.Kind()) {
		case cmpI64:
			lx, rx := lv.Int64s(), rv.Int64s()
			if lv.HasNulls() || rv.HasNulls() {
				for _, idx := range sel {
					if !lv.Valid(idx) || !rv.Valid(idx) {
						continue
					}
					if i64Satisfied(p.Op, lx[idx], rx[idx]) {
						dst = append(dst, idx)
					}
				}
			} else {
				for _, idx := range sel {
					if i64Satisfied(p.Op, lx[idx], rx[idx]) {
						dst = append(dst, idx)
					}
				}
			}
			return dst, true, nil
		case cmpF64:
			ln, rn := numColOf(lv), numColOf(rv)
			checkNulls := lv.HasNulls() || rv.HasNulls()
			for _, idx := range sel {
				if checkNulls && (!lv.Valid(idx) || !rv.Valid(idx)) {
					continue
				}
				if f64Satisfied(p.Op, ln.at(idx), rn.at(idx)) {
					dst = append(dst, idx)
				}
			}
			return dst, true, nil
		case cmpStr:
			lx, rx := lv.Strings(), rv.Strings()
			checkNulls := lv.HasNulls() || rv.HasNulls()
			for _, idx := range sel {
				if checkNulls && (!lv.Valid(idx) || !rv.Valid(idx)) {
					continue
				}
				if cmpSatisfied(p.Op, strings.Compare(lx[idx], rx[idx])) {
					dst = append(dst, idx)
				}
			}
			return dst, true, nil
		}
		for _, idx := range sel {
			l, r := lv.Value(idx), rv.Value(idx)
			if l.IsNull() || r.IsNull() {
				continue
			}
			if cmpSatisfied(p.Op, sqltypes.Compare(l, r)) {
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
		return filterColConst(p.Op, &cols[lpos], rval, false, sel, dst), true, nil
	case rpos >= 0:
		lval, isLeaf, err := leafVal(p.L, env)
		if err != nil || !isLeaf {
			return dst, isLeaf, err
		}
		if lval.IsNull() {
			return dst, true, nil
		}
		return filterColConst(p.Op, &cols[rpos], lval, true, sel, dst), true, nil
	}
	return dst, false, nil
}

// i64Satisfied and f64Satisfied compare unboxed payloads per op; inlined
// into the selection loops, they replace sqltypes.Compare's kind dispatch.
func i64Satisfied(op Op, a, b int64) bool {
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

func f64Satisfied(op Op, a, b float64) bool {
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

// filterColConst selects rows where `col op const` holds (or `const op col`
// when constLeft). The headline scan+filter kernel: per-op loops over the
// flat payload with the constant hoisted out of the loop.
func filterColConst(op Op, vec *rowset.Vec, cv sqltypes.Value, constLeft bool, sel, dst []int) []int {
	// Normalize to col-on-the-left by flipping the operator.
	if constLeft {
		op = flipCmp(op)
	}
	switch classifyCmp(vec.Kind(), cv.Kind()) {
	case cmpI64:
		c, _ := cv.AsInt()
		xs := vec.Int64s()
		if !vec.HasNulls() {
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
		for _, idx := range sel {
			if vec.Valid(idx) && i64Satisfied(op, xs[idx], c) {
				dst = append(dst, idx)
			}
		}
		return dst
	case cmpF64:
		c, _ := cv.AsFloat()
		n := numColOf(vec)
		if !vec.HasNulls() {
			switch op {
			case OpEq:
				for _, idx := range sel {
					if n.at(idx) == c {
						dst = append(dst, idx)
					}
				}
			case OpNe:
				for _, idx := range sel {
					if n.at(idx) != c {
						dst = append(dst, idx)
					}
				}
			case OpLt:
				for _, idx := range sel {
					if n.at(idx) < c {
						dst = append(dst, idx)
					}
				}
			case OpLe:
				for _, idx := range sel {
					if n.at(idx) <= c {
						dst = append(dst, idx)
					}
				}
			case OpGt:
				for _, idx := range sel {
					if n.at(idx) > c {
						dst = append(dst, idx)
					}
				}
			case OpGe:
				for _, idx := range sel {
					if n.at(idx) >= c {
						dst = append(dst, idx)
					}
				}
			}
			return dst
		}
		for _, idx := range sel {
			if vec.Valid(idx) && f64Satisfied(op, n.at(idx), c) {
				dst = append(dst, idx)
			}
		}
		return dst
	case cmpStr:
		c := cv.Str()
		xs := vec.Strings()
		checkNulls := vec.HasNulls()
		for _, idx := range sel {
			if checkNulls && !vec.Valid(idx) {
				continue
			}
			if cmpSatisfied(op, strings.Compare(xs[idx], c)) {
				dst = append(dst, idx)
			}
		}
		return dst
	}
	// Mixed kinds or generic column: boxed loop, identical to the PR 6 path.
	for _, idx := range sel {
		v := vec.Value(idx)
		if v.IsNull() {
			continue
		}
		if cmpSatisfied(op, sqltypes.Compare(v, cv)) {
			dst = append(dst, idx)
		}
	}
	return dst
}

// flipCmp mirrors a comparison so `const op col` becomes `col op' const`.
func flipCmp(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // Eq and Ne are symmetric
}

// EvalVec evaluates e once per selected row, writing results densely into
// out: position k receives the k-th selected row's value. out is reset by
// the kernel to exactly len(sel) rows — typed to the result kind when the
// inputs allow it, generic otherwise. Direct loops
// serve bound column references (a payload copy), row-independent leaves
// (a broadcast) and one-level arithmetic over typed columns; other shapes
// gather into rowBuf and run the interpreter with a reused Env.
func EvalVec(e Expr, env *Env, cols []rowset.Vec, sel []int, out *rowset.Vec, rowBuf []sqltypes.Value) error {
	if pos := boundCol(e); pos >= 0 {
		src := &cols[pos]
		if src.IsTyped() {
			copyVecDense(src, sel, out)
			return nil
		}
		out.ResetGeneric(len(sel))
		gen := out.Gen()
		for k, idx := range sel {
			gen[k] = src.Value(idx)
		}
		return nil
	}
	if v, isLeaf, err := leafVal(e, env); isLeaf || err != nil {
		if err != nil {
			return err
		}
		broadcastDense(v, len(sel), out)
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op.IsArith() {
		if done, err := evalArithVec(b, env, cols, sel, out); done || err != nil {
			return err
		}
	}
	out.ResetGeneric(len(sel))
	gen := out.Gen()
	saved := env.Row
	defer func() { env.Row = saved }()
	width := len(cols)
	for k, idx := range sel {
		for j := 0; j < width; j++ {
			rowBuf[j] = cols[j].Value(idx)
		}
		env.Row = rowBuf[:width]
		v, err := e.Eval(env)
		if err != nil {
			return err
		}
		gen[k] = v
	}
	return nil
}

// copyVecDense gathers src's selected elements densely into out, preserving
// the typed representation and validity.
func copyVecDense(src *rowset.Vec, sel []int, out *rowset.Vec) {
	out.ResetTyped(src.Kind(), len(sel))
	switch src.Kind() {
	case sqltypes.KindFloat:
		xs, ox := src.Float64s(), out.Float64s()
		for k, idx := range sel {
			ox[k] = xs[idx]
		}
	case sqltypes.KindString:
		xs, ox := src.Strings(), out.Strings()
		for k, idx := range sel {
			ox[k] = xs[idx]
		}
	default:
		xs, ox := src.Int64s(), out.Int64s()
		for k, idx := range sel {
			ox[k] = xs[idx]
		}
	}
	if src.HasNulls() {
		for k, idx := range sel {
			if !src.Valid(idx) {
				out.SetNull(k)
			}
		}
	}
}

// broadcastDense fills out's first n positions with v.
func broadcastDense(v sqltypes.Value, n int, out *rowset.Vec) {
	if !v.IsNull() {
		out.ResetTyped(v.Kind(), n)
		switch v.Kind() {
		case sqltypes.KindFloat:
			ox := out.Float64s()
			for k := 0; k < n; k++ {
				ox[k] = v.Float()
			}
		case sqltypes.KindString:
			ox := out.Strings()
			s := v.Str()
			for k := 0; k < n; k++ {
				ox[k] = s
			}
		default:
			x, _ := v.AsInt()
			ox := out.Int64s()
			for k := 0; k < n; k++ {
				ox[k] = x
			}
		}
		return
	}
	out.ResetGeneric(n)
	gen := out.Gen()
	for k := 0; k < n; k++ {
		gen[k] = v
	}
}

// arithSide is one operand of a typed arithmetic kernel: a typed column or
// a row-independent scalar.
type arithSide struct {
	vec  *rowset.Vec // nil for a scalar operand
	val  sqltypes.Value
	kind sqltypes.Kind
}

func (s *arithSide) valid(idx int) bool {
	if s.vec == nil {
		return true
	}
	return s.vec.Valid(idx)
}

func (s *arithSide) hasNulls() bool { return s.vec != nil && s.vec.HasNulls() }

func (s *arithSide) i64At(idx int) int64 {
	if s.vec != nil {
		return s.vec.Int64s()[idx]
	}
	x, _ := s.val.AsInt()
	return x
}

func (s *arithSide) strAt(idx int) string {
	if s.vec != nil {
		return s.vec.Strings()[idx]
	}
	return s.val.Str()
}

// resolveArithSide classifies b's operand e. ok is false when the operand
// is neither a typed bound column nor a non-NULL leaf (NULL leaves are
// handled by the caller as an all-NULL result).
func resolveArithSide(e Expr, env *Env, cols []rowset.Vec) (arithSide, bool, error) {
	if pos := boundCol(e); pos >= 0 {
		vec := &cols[pos]
		if !vec.IsTyped() {
			return arithSide{}, false, nil
		}
		return arithSide{vec: vec, kind: vec.Kind()}, true, nil
	}
	v, isLeaf, err := leafVal(e, env)
	if err != nil || !isLeaf {
		return arithSide{}, false, err
	}
	return arithSide{val: v, kind: v.Kind()}, true, nil
}

// evalArithVec runs one-level arithmetic unboxed when both operands are
// typed columns or leaves, mirroring evalArith's dispatch exactly:
// int×int stays integral (with div/mod-by-zero errors), date±int and
// date−date use day arithmetic, string+string concatenates, and every
// other numeric pair promotes to float64 (bool operands included — the
// interpreter routes them through the float path too). done is false when
// the shape or kind pair is not fast-pathable and the caller must fall
// back to the interpreter.
func evalArithVec(b *Binary, env *Env, cols []rowset.Vec, sel []int, out *rowset.Vec) (bool, error) {
	l, lok, err := resolveArithSide(b.L, env, cols)
	if err != nil {
		return false, err
	}
	r, rok, err := resolveArithSide(b.R, env, cols)
	if err != nil {
		return false, err
	}
	if !lok || !rok {
		return false, nil
	}
	if l.kind == sqltypes.KindNull || r.kind == sqltypes.KindNull {
		// NULL leaf operand: arithmetic yields NULL for every row.
		broadcastDense(sqltypes.Null, len(sel), out)
		return true, nil
	}
	nullable := l.hasNulls() || r.hasNulls()
	switch {
	case l.kind == sqltypes.KindInt && r.kind == sqltypes.KindInt:
		out.ResetTyped(sqltypes.KindInt, len(sel))
		ox := out.Int64s()
		for k, idx := range sel {
			if nullable && (!l.valid(idx) || !r.valid(idx)) {
				out.SetNull(k)
				continue
			}
			a, c := l.i64At(idx), r.i64At(idx)
			switch b.Op {
			case OpAdd:
				ox[k] = a + c
			case OpSub:
				ox[k] = a - c
			case OpMul:
				ox[k] = a * c
			case OpDiv:
				if c == 0 {
					return true, errDivZero()
				}
				ox[k] = a / c
			case OpMod:
				if c == 0 {
					return true, errModZero()
				}
				ox[k] = a % c
			}
		}
		return true, nil
	case l.kind == sqltypes.KindDate && r.kind == sqltypes.KindInt && (b.Op == OpAdd || b.Op == OpSub):
		out.ResetTyped(sqltypes.KindDate, len(sel))
		ox := out.Int64s()
		for k, idx := range sel {
			if nullable && (!l.valid(idx) || !r.valid(idx)) {
				out.SetNull(k)
				continue
			}
			if b.Op == OpAdd {
				ox[k] = l.i64At(idx) + r.i64At(idx)
			} else {
				ox[k] = l.i64At(idx) - r.i64At(idx)
			}
		}
		return true, nil
	case l.kind == sqltypes.KindDate && r.kind == sqltypes.KindDate && b.Op == OpSub:
		out.ResetTyped(sqltypes.KindInt, len(sel))
		ox := out.Int64s()
		for k, idx := range sel {
			if nullable && (!l.valid(idx) || !r.valid(idx)) {
				out.SetNull(k)
				continue
			}
			ox[k] = l.i64At(idx) - r.i64At(idx)
		}
		return true, nil
	case l.kind == sqltypes.KindString && r.kind == sqltypes.KindString && b.Op == OpAdd:
		out.ResetTyped(sqltypes.KindString, len(sel))
		ox := out.Strings()
		for k, idx := range sel {
			if nullable && (!l.valid(idx) || !r.valid(idx)) {
				out.SetNull(k)
				continue
			}
			ox[k] = l.strAt(idx) + r.strAt(idx)
		}
		return true, nil
	case numericFamily(l.kind) && numericFamily(r.kind):
		var ln, rn numCol
		if l.vec != nil {
			ln = numColOf(l.vec)
		} else {
			ln = numConstOf(l.val)
		}
		if r.vec != nil {
			rn = numColOf(r.vec)
		} else {
			rn = numConstOf(r.val)
		}
		out.ResetTyped(sqltypes.KindFloat, len(sel))
		ox := out.Float64s()
		for k, idx := range sel {
			if nullable && (!l.valid(idx) || !r.valid(idx)) {
				out.SetNull(k)
				continue
			}
			a, c := ln.at(idx), rn.at(idx)
			switch b.Op {
			case OpAdd:
				ox[k] = a + c
			case OpSub:
				ox[k] = a - c
			case OpMul:
				ox[k] = a * c
			case OpDiv:
				if c == 0 {
					return true, errDivZero()
				}
				ox[k] = a / c
			case OpMod:
				if c == 0 {
					return true, errModZero()
				}
				ox[k] = float64(int64(a) % int64(c))
			}
		}
		return true, nil
	}
	return false, nil
}
