// Package expr implements scalar expression trees: evaluation with SQL
// three-valued logic, column analysis, constant folding, conjunct handling
// and the remotability analysis the DHQP's predicate split/merge rules rely
// on (paper §4.1.2).
//
// Columns are referenced by query-global ColumnID, never by position; each
// relational operator publishes the ColumnIDs it produces, which is what
// lets exploration rules reorder joins without rewriting expressions. Before
// execution, Bind resolves ColumnIDs to positions for a concrete row layout.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"dhqp/internal/ftquery"
	"dhqp/internal/sqltypes"
)

// ColumnID identifies a column within one query compilation. IDs are
// allocated by the binder's ColumnAllocator and are unique across all tables
// and computed columns in the query.
type ColumnID int

// ColSet is a set of ColumnIDs.
type ColSet map[ColumnID]struct{}

// NewColSet builds a set from ids.
func NewColSet(ids ...ColumnID) ColSet {
	s := make(ColSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id.
func (s ColSet) Add(id ColumnID) { s[id] = struct{}{} }

// Has reports membership.
func (s ColSet) Has(id ColumnID) bool { _, ok := s[id]; return ok }

// SubsetOf reports whether every member of s is in t.
func (s ColSet) SubsetOf(t ColSet) bool {
	for id := range s {
		if !t.Has(id) {
			return false
		}
	}
	return true
}

// Union returns a new set with all members of s and t.
func (s ColSet) Union(t ColSet) ColSet {
	out := make(ColSet, len(s)+len(t))
	for id := range s {
		out.Add(id)
	}
	for id := range t {
		out.Add(id)
	}
	return out
}

// Intersects reports whether the sets share a member.
func (s ColSet) Intersects(t ColSet) bool {
	for id := range s {
		if t.Has(id) {
			return true
		}
	}
	return false
}

// Sorted returns the members in ascending order.
func (s ColSet) Sorted() []ColumnID {
	out := make([]ColumnID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Env supplies what an expression reads besides its input columns: query
// parameters (@name) and the session date for today().
type Env struct {
	Params map[string]sqltypes.Value
	// Today is the session's current date (deterministic for tests).
	Today sqltypes.Value
}

// param returns parameter name's value.
func (env *Env) param(name string) (sqltypes.Value, error) {
	if env.Params == nil {
		return sqltypes.Null, fmt.Errorf("expr: no parameters bound (@%s)", name)
	}
	v, ok := env.Params[name]
	if !ok {
		return sqltypes.Null, fmt.Errorf("expr: parameter @%s not supplied", name)
	}
	return v, nil
}

// Expr is a scalar expression node. Implementations are immutable after
// construction; rewrites build new nodes. EvalVec and FilterSel evaluate
// them.
type Expr interface {
	// String renders the expression in SQL-ish debug syntax.
	String() string
}

// Op enumerates binary and unary operators.
type Op uint8

// Operators.
const (
	OpInvalid Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpNot
	OpNeg
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT", OpNeg: "-",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator is a comparison.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsArith reports whether the operator is arithmetic (+ - * / %).
func (o Op) IsArith() bool { return o >= OpAdd && o <= OpMod }

func errDivZero() error { return fmt.Errorf("expr: division by zero") }
func errModZero() error { return fmt.Errorf("expr: modulo by zero") }

// Commute returns the comparison with swapped operand order (a op b ==
// b op.Commute() a), used when normalizing predicates.
func (o Op) Commute() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// Const is a literal value.
type Const struct{ Val sqltypes.Value }

// NewConst returns a literal expression.
func NewConst(v sqltypes.Value) *Const { return &Const{Val: v} }

func (c *Const) String() string { return c.Val.String() }

// ColRef references a column by ColumnID. Name carries the display name.
// pos is the bound position within the execution row layout; -1 when
// unbound. Evaluating an unbound ColRef returns an error, which surfaces
// binder/optimizer bugs instead of silently reading wrong columns.
type ColRef struct {
	ID   ColumnID
	Name string
	pos  int
}

// NewColRef returns an unbound column reference.
func NewColRef(id ColumnID, name string) *ColRef {
	return &ColRef{ID: id, Name: name, pos: -1}
}

// BoundColRef returns a column reference pre-bound to a position (tests and
// internal plan construction).
func BoundColRef(id ColumnID, name string, pos int) *ColRef {
	return &ColRef{ID: id, Name: name, pos: pos}
}

// Pos returns the bound position, or -1.
func (c *ColRef) Pos() int { return c.pos }

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("col%d", c.ID)
}

// Param references a query parameter (@name). Startup filters (§4.1.5) are
// built entirely from Params and Consts so they can run before their input.
type Param struct{ Name string }

// NewParam returns a parameter reference; name excludes the '@'.
func NewParam(name string) *Param { return &Param{Name: name} }

func (p *Param) String() string { return "@" + p.Name }

// Binary applies Op to two operands with SQL three-valued logic:
// comparisons and arithmetic on NULL yield NULL; AND/OR use Kleene logic.
type Binary struct {
	Op   Op
	L, R Expr
}

// NewBinary builds a binary expression.
func NewBinary(op Op, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// applyBinary is a comparison's or an arithmetic operator's rule over one
// row's operand values.
func applyBinary(op Op, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	if op.IsComparison() {
		return sqltypes.NewBool(cmpSatisfied(op, sqltypes.Compare(l, r))), nil
	}
	return evalArith(op, l, r)
}

func boolOf(v sqltypes.Value) (b, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	if i, ok := v.AsInt(); ok {
		return i != 0, false
	}
	return false, true
}

// evalArith is arithmetic over two non-NULL values: INT with INT stays
// INT, date ± days and date − date count days, + concatenates strings, and
// any other numeric pair promotes to FLOAT.
func evalArith(op Op, l, r sqltypes.Value) (sqltypes.Value, error) {
	// Date ± integer days (the paper's date(today(), -2) pattern also
	// flows through here after the date() function evaluates).
	if l.Kind() == sqltypes.KindDate && r.Kind() == sqltypes.KindInt {
		switch op {
		case OpAdd:
			return sqltypes.NewDateDays(l.DateDays() + r.Int()), nil
		case OpSub:
			return sqltypes.NewDateDays(l.DateDays() - r.Int()), nil
		}
	}
	if l.Kind() == sqltypes.KindDate && r.Kind() == sqltypes.KindDate && op == OpSub {
		return sqltypes.NewInt(l.DateDays() - r.DateDays()), nil
	}
	if l.Kind() == sqltypes.KindString && r.Kind() == sqltypes.KindString && op == OpAdd {
		return sqltypes.NewString(l.Str() + r.Str()), nil
	}
	if l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt {
		v, err := intArith(op, l.Int(), r.Int())
		return sqltypes.NewInt(v), err
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return sqltypes.Null, fmt.Errorf("expr: %s not defined on %s, %s", op, l.Kind(), r.Kind())
	}
	v, err := floatArith(op, lf, rf)
	return sqltypes.NewFloat(v), err
}

// intArith and floatArith are the arithmetic operators over unboxed
// operands; the typed kernels inline + - * and call intDivMod and
// floatDivMod for the rest.
func intArith(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	}
	return intDivMod(op, a, b)
}

func intDivMod(op Op, a, b int64) (int64, error) {
	switch {
	case op == OpDiv && b == 0:
		return 0, errDivZero()
	case op == OpDiv:
		return a / b, nil
	case op == OpMod && b == 0:
		return 0, errModZero()
	case op == OpMod:
		return a % b, nil
	}
	return 0, fmt.Errorf("expr: unsupported operator %v", op)
}

func floatArith(op Op, a, b float64) (float64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	}
	return floatDivMod(op, a, b)
}

// floatDivMod's % truncates both operands to integers first, so a divisor
// in (-1, 1) is a zero one.
func floatDivMod(op Op, a, b float64) (float64, error) {
	switch {
	case op == OpDiv && b == 0:
		return 0, errDivZero()
	case op == OpDiv:
		return a / b, nil
	case op == OpMod && int64(b) == 0:
		return 0, errModZero()
	case op == OpMod:
		return float64(int64(a) % int64(b)), nil
	}
	return 0, fmt.Errorf("expr: unsupported operator %v", op)
}

// Unary applies NOT or numeric negation.
type Unary struct {
	Op Op
	E  Expr
}

// NewNot returns NOT e.
func NewNot(e Expr) *Unary { return &Unary{Op: OpNot, E: e} }

// NewNeg returns -e.
func NewNeg(e Expr) *Unary { return &Unary{Op: OpNeg, E: e} }

func (u *Unary) apply(v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	switch u.Op {
	case OpNot:
		b, null := boolOf(v)
		if null {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!b), nil
	case OpNeg:
		switch v.Kind() {
		case sqltypes.KindInt:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(-v.Float()), nil
		}
	}
	return sqltypes.Null, fmt.Errorf("expr: unary %v on %s", u.Op, v.Kind())
}

func (u *Unary) String() string {
	if u.Op == OpNot {
		return "NOT " + u.E.String()
	}
	return "-" + u.E.String()
}

// IsNull tests e IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

func (n *IsNull) String() string {
	if n.Negate {
		return n.E.String() + " IS NOT NULL"
	}
	return n.E.String() + " IS NULL"
}

// Like implements the SQL LIKE operator with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

func (l *Like) apply(v, p sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() || p.IsNull() {
		return sqltypes.Null, nil
	}
	if v.Kind() != sqltypes.KindString || p.Kind() != sqltypes.KindString {
		return sqltypes.Null, fmt.Errorf("expr: LIKE needs strings, got %s, %s", v.Kind(), p.Kind())
	}
	return sqltypes.NewBool(likeMatch(v.Str(), p.Str()) != l.Negate), nil
}

func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s %s", l.E.String(), op, l.Pattern.String())
}

// likeMatch matches s against a SQL LIKE pattern, case-insensitively (SQL
// Server default collation behaviour). A mismatch backtracks only to the
// last % seen, retrying it one character further on, so the match costs
// O(len(s)·len(pattern)) however many wildcards the pattern holds.
func likeMatch(s, pattern string) bool {
	s, p := strings.ToLower(s), strings.ToLower(pattern)
	si, pi := 0, 0
	star, mark := -1, 0 // the last % and the position of s it is retried from
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// InList tests e IN (v1, v2, ...).
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

// apply is IN with SQL NULL semantics: if no member matches and any member
// (or e) is NULL, the result is NULL.
func (in *InList) apply(v sqltypes.Value, members []sqltypes.Value) sqltypes.Value {
	if v.IsNull() {
		return sqltypes.Null
	}
	sawNull := false
	for _, mv := range members {
		if mv.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Equal(v, mv) {
			return sqltypes.NewBool(!in.Negate)
		}
	}
	if sawNull {
		return sqltypes.Null
	}
	return sqltypes.NewBool(in.Negate)
}

func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", in.E.String(), op, strings.Join(parts, ", "))
}

// Contains is the full-text CONTAINS(col, 'query') predicate. Evaluated
// directly it is the *naive* evaluator — tokenize the column text and
// match — used when no full-text index serves the table; the optimizer
// normally replaces it with a join against the search service's (key,
// rank) rowset (§2.3).
type Contains struct {
	Col   Expr
	Query string

	parsed ftquery.Node
}

// NewContains builds a CONTAINS predicate, parsing the query eagerly so
// syntax errors surface at compile time.
func NewContains(col Expr, query string) (*Contains, error) {
	n, err := ftquery.Parse(query)
	if err != nil {
		return nil, err
	}
	return &Contains{Col: col, Query: query, parsed: n}, nil
}

// Node exposes the parsed full-text query (the fulltext provider reuses it).
func (c *Contains) Node() ftquery.Node { return c.parsed }

func (c *Contains) apply(v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.NewBool(false), nil
	}
	if v.Kind() != sqltypes.KindString {
		return sqltypes.Null, fmt.Errorf("expr: CONTAINS over %s", v.Kind())
	}
	return sqltypes.NewBool(c.parsed.Match(ftquery.NewDocument(v.Str()))), nil
}

func (c *Contains) String() string {
	return fmt.Sprintf("CONTAINS(%s, '%s')", c.Col.String(), c.Query)
}

// Truthy reports whether a predicate result admits the row (TRUE only;
// FALSE and NULL reject, per SQL WHERE semantics).
func Truthy(v sqltypes.Value) bool {
	b, null := boolOf(v)
	return !null && b
}
