// Package decoder implements the paper's decoder (§4.1.3): it takes a
// logical query tree and decodes it into an equivalent SQL statement in the
// dialect of the target provider, responding to the connection's capability
// properties — SQL support level, nested-select support, identifier quoting
// and date literal format. Decode failure is meaningful: the build-remote-
// query rule treats it as "this alternative is not remotable" and the
// framework picks another tree from the same Memo group (§4.1.4). Writes
// decode here too: DecodeWrite prints one member's INSERT, UPDATE or DELETE
// through the same scalar and literal writers.
package decoder

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// ErrNotRemotable wraps all decode failures so callers can distinguish
// "cannot remote this shape" from programming errors.
type ErrNotRemotable struct {
	Reason string
}

func (e *ErrNotRemotable) Error() string { return "decoder: not remotable: " + e.Reason }

func notRemotable(format string, args ...any) error {
	return &ErrNotRemotable{Reason: fmt.Sprintf(format, args...)}
}

// Result is a decoded statement.
type Result struct {
	// SQL is the statement text in the target dialect. Output columns are
	// aliased c<ID> positionally matching Cols; lifted constants appear as
	// their generated parameters.
	SQL string
	// Cols are the statement's output columns.
	Cols []algebra.OutCol
	// Params lists the statement parameters the text references (lifted
	// constants excluded).
	Params []string
	// Binds are the predicate constants lifted into generated parameters,
	// in the order the text names them.
	Binds []algebra.Bind
}

// liftPrefix starts the generated parameter names of lifted constants.
const liftPrefix = "__k"

// Decode translates a logical tree rooted at n into the dialect described
// by caps. Every Get in the tree must target the same linked server; the
// emitted table names drop the server part (the remote resolves its own
// catalog.schema.table names).
//
// When the dialect accepts parameters, every non-NULL constant inside a
// WHERE, ON or EXISTS predicate — LIKE patterns excepted — is lifted into a
// generated parameter (@__k0, @__k1, …), so the text depends only on the
// plan's shape and a member compiles it once. The select list, GROUP BY,
// ORDER BY and TOP keep their literals.
func Decode(n *algebra.Node, caps oledb.Capabilities) (*Result, error) {
	for prefix := liftPrefix; ; prefix = "_" + prefix {
		d := &decoder{caps: caps, prefix: prefix}
		b, err := d.rel(n)
		if err != nil {
			return nil, err
		}
		if d.collides() {
			// A statement parameter could be read as a lifted one: decode
			// again under a longer prefix no statement parameter starts with.
			continue
		}
		return &Result{SQL: b.render(), Cols: n.OutCols(), Params: d.params, Binds: d.binds}, nil
	}
}

// Check reports whether Decode would write n in the dialect caps describes,
// and which statement parameters the text would reference, without writing
// it: the same traversal under the same rejection rules, with every text
// left empty. The optimizer checks each group it may push and writes only
// the statements its plan keeps.
func Check(n *algebra.Node, caps oledb.Capabilities) ([]string, error) {
	d := &decoder{caps: caps, check: true}
	if _, err := d.rel(n); err != nil {
		return nil, err
	}
	return d.params, nil
}

// WriteKind names the statement a Write prints.
type WriteKind int

// Write kinds.
const (
	Insert WriteKind = iota
	Update
	Delete
)

// Write is one INSERT, UPDATE or DELETE against a single table. Where and
// the Set expressions reference Table.Def's columns as the binder's table
// scalars number them: column i has ColumnID i+1.
type Write struct {
	Kind  WriteKind
	Table *algebra.Source
	Rows  []rowset.Row // Insert: one value per Table.Def column
	Set   []Assign     // Update
	Where expr.Expr    // Update and Delete; nil writes every row
}

// Assign is one SET item: a Table.Def column ordinal and its new value.
type Assign struct {
	Col int
	E   expr.Expr
}

// DecodeWrite prints w in the dialect caps describes, through the same
// scalar, literal and identifier writers a SELECT decodes with. Constants
// stay literal. A member caches a write's plan by its text only when its
// WHERE names a parameter, and compiles a literal one on every execution;
// lifting a write's constants into binds, as a SELECT's are, is a separate
// change. Result.Params names the
// statement parameters the text references. A write the dialect cannot
// express is ErrNotRemotable.
func DecodeWrite(w *Write, caps oledb.Capabilities) (*Result, error) {
	if caps.SQLSupport < oledb.SQLMinimum || caps.SQLSupport > oledb.SQLFull {
		return nil, notRemotable("dialect %s takes no SQL writes", caps.SQLSupport)
	}
	d := &decoder{caps: caps}
	def := w.Table.Def
	refs := make(map[expr.ColumnID]string, len(def.Columns))
	for i, c := range def.Columns {
		refs[expr.ColumnID(i+1)] = d.ident(c.Name)
	}
	var b strings.Builder
	switch w.Kind {
	case Insert:
		b.WriteString("INSERT INTO " + d.tableName(w.Table) + " VALUES ")
		for i, r := range w.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for j, v := range r {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(d.literal(v))
			}
			b.WriteByte(')')
		}
	case Update:
		b.WriteString("UPDATE " + d.tableName(w.Table) + " SET ")
		for i, a := range w.Set {
			s, err := d.scalar(a.E, refs)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refs[expr.ColumnID(a.Col+1)] + " = " + s)
		}
	case Delete:
		b.WriteString("DELETE FROM " + d.tableName(w.Table))
	}
	if w.Where != nil {
		s, err := d.scalar(w.Where, refs)
		if err != nil {
			return nil, err
		}
		b.WriteString(" WHERE " + s)
	}
	return &Result{SQL: b.String(), Params: d.params}, nil
}

type decoder struct {
	caps      oledb.Capabilities
	aliasSeq  int
	params    []string
	paramSeen map[string]bool
	// lift is set while a predicate decodes: constants become binds.
	lift   bool
	prefix string
	binds  []algebra.Bind
	// check leaves every text empty (Check).
	check bool
}

// cat concatenates text parts; under check it writes nothing.
func (d *decoder) cat(parts ...string) string { return d.list(parts, "") }

// list is strings.Join, writing nothing under check.
func (d *decoder) list(items []string, sep string) string {
	if d.check {
		return ""
	}
	return strings.Join(items, sep)
}

// collides reports whether a statement parameter starts with the lifted
// names' prefix.
func (d *decoder) collides() bool {
	if len(d.binds) == 0 {
		return false
	}
	for _, p := range d.params {
		if strings.HasPrefix(p, d.prefix) {
			return true
		}
	}
	return false
}

// box is a SELECT statement under construction. refs maps each in-scope
// ColumnID to the SQL expression that computes it (e.g. "t0.c_name" or a
// projected expression); select-list items render as "<ref> AS cN" while
// WHERE/ON clauses use the refs directly, since SQL does not allow select
// aliases in predicates.
type box struct {
	selectList []string // "expr AS cN"
	refs       map[expr.ColumnID]string
	from       string
	where      []string
	groupBy    []string
	orderBy    []string
	topN       int64 // 0 = none
	// composable reports whether a parent may merge into this box (no
	// group-by/top yet).
	composable bool
}

func (b *box) render() string {
	var s strings.Builder
	s.WriteString("SELECT ")
	if b.topN > 0 {
		fmt.Fprintf(&s, "TOP %d ", b.topN)
	}
	s.WriteString(strings.Join(b.selectList, ", "))
	s.WriteString(" FROM ")
	s.WriteString(b.from)
	if len(b.where) > 0 {
		s.WriteString(" WHERE ")
		s.WriteString(strings.Join(b.where, " AND "))
	}
	if len(b.groupBy) > 0 {
		s.WriteString(" GROUP BY ")
		s.WriteString(strings.Join(b.groupBy, ", "))
	}
	if len(b.orderBy) > 0 {
		s.WriteString(" ORDER BY ")
		s.WriteString(strings.Join(b.orderBy, ", "))
	}
	return s.String()
}

// alias names output column id in a select list.
func (d *decoder) alias(id expr.ColumnID) string {
	if d.check {
		return ""
	}
	return "c" + strconv.Itoa(int(id))
}

// rel decodes a relational subtree into a box.
func (d *decoder) rel(n *algebra.Node) (*box, error) {
	switch op := n.Op.(type) {
	case *algebra.Get:
		return d.get(op)
	case *algebra.Select:
		return d.sel(op, n)
	case *algebra.Project:
		return d.project(op, n)
	case *algebra.Join:
		return d.join(op, n)
	case *algebra.GroupBy:
		return d.groupBy(op, n)
	case *algebra.Top:
		return d.top(op, n)
	default:
		return nil, notRemotable("operator %s has no SQL corollary in this dialect", n.Op.OpName())
	}
}

func (d *decoder) get(op *algebra.Get) (*box, error) {
	if op.Src.Kind != algebra.SourceBaseTable {
		return nil, notRemotable("source kind %d is not a base table", op.Src.Kind)
	}
	alias := d.cat("t", strconv.Itoa(d.aliasSeq))
	d.aliasSeq++
	b := &box{from: d.cat(d.tableName(op.Src), " AS ", alias), composable: true, refs: map[expr.ColumnID]string{},
		selectList: make([]string, 0, len(op.Cols))}
	if op.Src.Def == nil || len(op.Src.Def.Columns) < len(op.Cols) {
		return nil, notRemotable("missing schema for %s", op.Src)
	}
	for _, c := range op.Cols {
		// Resolve by name, not position: column pruning can narrow the scan
		// to a non-prefix subset of the table's columns.
		ord := op.Src.Def.ColumnIndex(c.Name)
		if ord < 0 {
			return nil, notRemotable("column %s not in schema for %s", c.Name, op.Src)
		}
		ref := d.cat(alias, ".", d.ident(op.Src.Def.Columns[ord].Name))
		b.refs[c.ID] = ref
		b.selectList = append(b.selectList, d.cat(ref, " AS ", d.alias(c.ID)))
	}
	return b, nil
}

// tableName renders catalog.schema.table without the server part.
func (d *decoder) tableName(src *algebra.Source) string {
	if d.check {
		return ""
	}
	parts := []string{}
	if src.Catalog != "" {
		parts = append(parts, d.ident(src.Catalog))
	}
	if src.Schema != "" {
		parts = append(parts, d.ident(src.Schema))
	}
	parts = append(parts, d.ident(src.Table))
	return strings.Join(parts, ".")
}

func (d *decoder) ident(name string) string {
	if d.check || d.caps.QuoteChar == "" || isPlainIdent(name) {
		return name
	}
	q := d.caps.QuoteChar
	close := q
	if q == "[" {
		close = "]"
	}
	return q + name + close
}

func isPlainIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (d *decoder) sel(op *algebra.Select, n *algebra.Node) (*box, error) {
	b, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if !b.composable {
		b, err = d.wrap(b, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	pred, err := d.predicate(op.Filter, b.refs)
	if err != nil {
		return nil, err
	}
	b.where = append(b.where, pred)
	return b, nil
}

func (d *decoder) project(op *algebra.Project, n *algebra.Node) (*box, error) {
	b, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if !b.composable {
		b, err = d.wrap(b, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	items := make([]string, len(op.Exprs))
	newRefs := map[expr.ColumnID]string{}
	for i, pe := range op.Exprs {
		s, err := d.scalar(pe.E, b.refs)
		if err != nil {
			return nil, err
		}
		items[i] = d.cat(s, " AS ", d.alias(pe.Out.ID))
		newRefs[pe.Out.ID] = s
	}
	b.selectList = items
	b.refs = newRefs
	return b, nil
}

func (d *decoder) join(op *algebra.Join, n *algebra.Node) (*box, error) {
	if d.caps.SQLSupport < oledb.SQLODBCCore {
		return nil, notRemotable("dialect %s does not support joins", d.caps.SQLSupport)
	}
	switch op.Type {
	case algebra.InnerJoin, algebra.LeftOuterJoin:
	case algebra.SemiJoin, algebra.AntiJoin:
		// Semi/anti joins decode as [NOT] EXISTS correlated subqueries —
		// the reason §4.1.4 delays subquery unrolling for remote subtrees:
		// the abstract semi-join regains its SQL corollary here.
		if !d.caps.NestedSelects {
			return nil, notRemotable("join type %s requires nested selects", op.Type)
		}
		return d.existsJoin(op, n)
	default:
		return nil, notRemotable("join type %s has no SQL corollary", op.Type)
	}
	lb, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	rb, err := d.rel(n.Kids[1])
	if err != nil {
		return nil, err
	}
	if !lb.composable {
		lb, err = d.wrap(lb, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	if !rb.composable {
		rb, err = d.wrap(rb, n.Kids[1])
		if err != nil {
			return nil, err
		}
	}
	if op.Type == algebra.LeftOuterJoin && len(rb.where) > 0 {
		// Right-side filters must stay below a left outer join; without
		// derived-table support the shape is not remotable.
		if !d.caps.NestedSelects {
			return nil, notRemotable("filter under outer join needs nested selects")
		}
		rb = d.derive(rb)
	}
	refs := map[expr.ColumnID]string{}
	for id, r := range lb.refs {
		refs[id] = r
	}
	for id, r := range rb.refs {
		refs[id] = r
	}
	onSQL := "1=1"
	if op.On != nil {
		onSQL, err = d.predicate(op.On, refs)
		if err != nil {
			return nil, err
		}
	}
	kw := "INNER JOIN"
	if op.Type == algebra.LeftOuterJoin {
		kw = "LEFT OUTER JOIN"
	}
	out := &box{
		selectList: append(append([]string{}, lb.selectList...), rb.selectList...),
		refs:       refs,
		from:       d.cat(lb.from, " ", kw, " ", rb.from, " ON ", onSQL),
		where:      append(append([]string{}, lb.where...), rb.where...),
		composable: true,
	}
	return out, nil
}

// existsJoin renders a semi- or anti-join as WHERE [NOT] EXISTS (SELECT 1
// FROM <right> WHERE <right filters AND on-condition>); the correlated
// condition references the outer FROM aliases directly.
func (d *decoder) existsJoin(op *algebra.Join, n *algebra.Node) (*box, error) {
	lb, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if !lb.composable {
		lb, err = d.wrap(lb, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	rb, err := d.rel(n.Kids[1])
	if err != nil {
		return nil, err
	}
	if !rb.composable {
		rb, err = d.wrap(rb, n.Kids[1])
		if err != nil {
			return nil, err
		}
	}
	refs := map[expr.ColumnID]string{}
	for id, r := range lb.refs {
		refs[id] = r
	}
	for id, r := range rb.refs {
		refs[id] = r
	}
	conds := append([]string{}, rb.where...)
	if op.On != nil {
		onSQL, err := d.predicate(op.On, refs)
		if err != nil {
			return nil, err
		}
		conds = append(conds, onSQL)
	}
	sub := d.cat("SELECT 1 AS one FROM ", rb.from)
	if len(conds) > 0 {
		sub = d.cat(sub, " WHERE ", d.list(conds, " AND "))
	}
	kw := "EXISTS"
	if op.Type == algebra.AntiJoin {
		kw = "NOT EXISTS"
	}
	lb.where = append(lb.where, d.cat(kw, " (", sub, ")"))
	return lb, nil
}

func (d *decoder) groupBy(op *algebra.GroupBy, n *algebra.Node) (*box, error) {
	if d.caps.SQLSupport < oledb.SQLEntry {
		return nil, notRemotable("dialect %s does not support GROUP BY", d.caps.SQLSupport)
	}
	b, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if !b.composable || len(b.groupBy) > 0 {
		b, err = d.wrap(b, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	var items []string
	newRefs := map[expr.ColumnID]string{}
	for _, gc := range op.GroupCols {
		ref, err := d.scalar(expr.NewColRef(gc.ID, gc.Name), b.refs)
		if err != nil {
			return nil, err
		}
		items = append(items, d.cat(ref, " AS ", d.alias(gc.ID)))
		b.groupBy = append(b.groupBy, ref)
		newRefs[gc.ID] = ref
	}
	for _, a := range op.Aggs {
		if a.Distinct && d.caps.SQLSupport < oledb.SQLFull {
			return nil, notRemotable("DISTINCT aggregates need SQL-92 full")
		}
		arg := "*"
		if a.Arg != nil {
			s, err := d.scalar(a.Arg, b.refs)
			if err != nil {
				return nil, err
			}
			arg = s
		}
		if a.Distinct {
			arg = d.cat("DISTINCT ", arg)
		}
		agg := d.cat(a.Func.String(), "(", arg, ")")
		items = append(items, d.cat(agg, " AS ", d.alias(a.Out.ID)))
		newRefs[a.Out.ID] = agg
	}
	b.selectList = items
	b.refs = newRefs
	b.composable = false
	return b, nil
}

func (d *decoder) top(op *algebra.Top, n *algebra.Node) (*box, error) {
	if d.caps.SQLSupport < oledb.SQLODBCCore {
		return nil, notRemotable("dialect %s does not support TOP/ORDER BY", d.caps.SQLSupport)
	}
	b, err := d.rel(n.Kids[0])
	if err != nil {
		return nil, err
	}
	if b.topN > 0 {
		b, err = d.wrap(b, n.Kids[0])
		if err != nil {
			return nil, err
		}
	}
	b.topN = op.N
	for _, oc := range op.Ordering {
		ref, err := d.scalar(expr.NewColRef(oc.Col, ""), b.refs)
		if err != nil {
			return nil, err
		}
		// ORDER BY takes column references only: a computed key is named
		// by its select-list alias.
		if alias := d.alias(oc.Col); strings.ContainsAny(ref, "( ") && slices.Contains(b.selectList, ref+" AS "+alias) {
			ref = alias
		}
		if oc.Desc {
			ref = d.cat(ref, " DESC")
		}
		b.orderBy = append(b.orderBy, ref)
	}
	b.composable = false
	return b, nil
}

// wrap turns a non-composable box into a derived table, which requires the
// nested-select capability (§4.1.3's extension property).
func (d *decoder) wrap(b *box, child *algebra.Node) (*box, error) {
	if !d.caps.NestedSelects {
		return nil, notRemotable("shape needs nested selects and provider lacks them")
	}
	return d.derive(b), nil
}

// derive wraps a box as "(SELECT ...) AS dN" exposing its cN aliases.
func (d *decoder) derive(b *box) *box {
	alias := d.cat("d", strconv.Itoa(d.aliasSeq))
	d.aliasSeq++
	items := make([]string, len(b.selectList))
	refs := map[expr.ColumnID]string{}
	for i, it := range b.selectList {
		// Each item ends in "AS cN": re-expose the alias from the derived
		// table.
		name := strings.TrimPrefix(it[strings.LastIndex(it, " AS ")+1:], "AS ")
		items[i] = d.cat(alias, ".", name, " AS ", name)
	}
	for id := range b.refs {
		refs[id] = d.cat(alias, ".", d.alias(id))
	}
	return &box{
		selectList: items,
		refs:       refs,
		from:       d.cat("(", b.render(), ") AS ", alias),
		composable: true,
	}
}

// predicate decodes a WHERE, ON or EXISTS condition, lifting its constants
// into binds when the dialect accepts parameters.
func (d *decoder) predicate(e expr.Expr, refs map[expr.ColumnID]string) (string, error) {
	d.lift = d.caps.Profile.Params
	s, err := d.scalar(e, refs)
	d.lift = false
	return s, err
}

// bind lifts one constant into a generated parameter and returns its marker.
func (d *decoder) bind(v sqltypes.Value) string {
	if d.check {
		return ""
	}
	name := d.prefix + strconv.Itoa(len(d.binds))
	d.binds = append(d.binds, algebra.Bind{Name: name, Val: v, Lit: d.literal(v)})
	return "@" + name
}

// scalar decodes a scalar expression; column references resolve through the
// box's underlying-expression map.
func (d *decoder) scalar(e expr.Expr, refs map[expr.ColumnID]string) (string, error) {
	var dec func(e expr.Expr) (string, error)
	dec = func(e expr.Expr) (string, error) {
		switch v := e.(type) {
		case *expr.Const:
			// NULL stays literal: it has no value to vary (every
			// comparison with it is UNKNOWN), so it is part of the shape.
			if d.lift && !v.Val.IsNull() {
				return d.bind(v.Val), nil
			}
			return d.literal(v.Val), nil
		case *expr.ColRef:
			ref, ok := refs[v.ID]
			if !ok {
				return "", notRemotable("column %s (id %d) not in remote scope", v.Name, v.ID)
			}
			return ref, nil
		case *expr.Param:
			if !d.caps.Profile.Params {
				return "", notRemotable("dialect does not accept parameters")
			}
			if d.paramSeen == nil {
				d.paramSeen = map[string]bool{}
			}
			if !d.paramSeen[v.Name] {
				d.paramSeen[v.Name] = true
				d.params = append(d.params, v.Name)
			}
			return d.cat("@", v.Name), nil
		case *expr.Binary:
			l, err := dec(v.L)
			if err != nil {
				return "", err
			}
			r, err := dec(v.R)
			if err != nil {
				return "", err
			}
			return d.cat("(", l, " ", v.Op.String(), " ", r, ")"), nil
		case *expr.Unary:
			s, err := dec(v.E)
			if err != nil {
				return "", err
			}
			if v.Op == expr.OpNot {
				return d.cat("(NOT ", s, ")"), nil
			}
			return d.cat("(-", s, ")"), nil
		case *expr.IsNull:
			s, err := dec(v.E)
			if err != nil {
				return "", err
			}
			if v.Negate {
				return d.cat("(", s, " IS NOT NULL)"), nil
			}
			return d.cat("(", s, " IS NULL)"), nil
		case *expr.Like:
			if !d.caps.Profile.Like {
				return "", notRemotable("dialect does not accept LIKE")
			}
			s, err := dec(v.E)
			if err != nil {
				return "", err
			}
			// The pattern stays literal: whether it has a fixed prefix
			// ('ab%' against '%ab') decides whether a prefix seek applies,
			// so it belongs to the plan's shape, not to its values.
			lift := d.lift
			d.lift = false
			p, err := dec(v.Pattern)
			d.lift = lift
			if err != nil {
				return "", err
			}
			op := "LIKE"
			if v.Negate {
				op = "NOT LIKE"
			}
			return d.cat("(", s, " ", op, " ", p, ")"), nil
		case *expr.InList:
			if !d.caps.Profile.InList {
				return "", notRemotable("dialect does not accept IN lists")
			}
			s, err := dec(v.E)
			if err != nil {
				return "", err
			}
			items := make([]string, len(v.List))
			for i, m := range v.List {
				items[i], err = dec(m)
				if err != nil {
					return "", err
				}
			}
			op := "IN"
			if v.Negate {
				op = "NOT IN"
			}
			return d.cat("(", s, " ", op, " (", d.list(items, ", "), "))"), nil
		case *expr.FuncCall:
			if d.caps.Profile.Funcs == nil || !d.caps.Profile.Funcs[v.Name] {
				return "", notRemotable("function %s not remotable", v.Name)
			}
			args := make([]string, len(v.Args))
			var err error
			for i, a := range v.Args {
				args[i], err = dec(a)
				if err != nil {
					return "", err
				}
			}
			return d.cat(v.Name, "(", d.list(args, ", "), ")"), nil
		default:
			return "", notRemotable("expression %T has no SQL corollary", e)
		}
	}
	return dec(e)
}

// literal renders a value in the dialect, honoring the date format
// extension property.
func (d *decoder) literal(v sqltypes.Value) string {
	switch {
	case v.Kind() == sqltypes.KindDate && d.caps.DateFormat != "":
		return v.Time().Format(d.caps.DateFormat)
	case v.Kind() == sqltypes.KindFloat:
		// A FLOAT keeps its decimal point, or the target reads an INT.
		s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return v.String()
}
