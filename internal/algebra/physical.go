package algebra

import (
	"fmt"
	"sort"
	"strings"

	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

// RangeBound is one end of an index key range in a physical access path.
// Vals are expressions (constants or parameters) for a prefix of the index
// key; nil Vals means unbounded.
type RangeBound struct {
	Vals      []expr.Expr
	Inclusive bool
}

func (b RangeBound) digest() string {
	if b.Vals == nil {
		return "-"
	}
	parts := make([]string, len(b.Vals))
	for i, v := range b.Vals {
		parts[i] = exprDigest(v)
	}
	inc := ")"
	if b.Inclusive {
		inc = "]"
	}
	return "[" + strings.Join(parts, ",") + inc
}

// TableScan reads every row of a local table.
type TableScan struct {
	Src  *Source
	Cols []OutCol
}

// OpName implements Operator.
func (t *TableScan) OpName() string { return "TableScan" }

// Logical implements Operator.
func (t *TableScan) Logical() bool { return false }

// Digest implements Operator.
func (t *TableScan) Digest() string { return t.Src.String() }

// OutCols implements Operator.
func (t *TableScan) OutCols([][]OutCol) []OutCol { return t.Cols }

// IndexRange reads rows of a local table through an index restricted to a
// key range; delivers rows in index order.
type IndexRange struct {
	Src    *Source
	Index  string
	Lo, Hi RangeBound
	Cols   []OutCol
	// Order is the ordering the index delivers, in output ColumnIDs.
	Order Ordering
}

// OpName implements Operator.
func (ix *IndexRange) OpName() string { return "IndexRange" }

// Logical implements Operator.
func (ix *IndexRange) Logical() bool { return false }

// Digest implements Operator.
func (ix *IndexRange) Digest() string {
	return fmt.Sprintf("%s.%s lo=%s hi=%s", ix.Src, ix.Index, ix.Lo.digest(), ix.Hi.digest())
}

// OutCols implements Operator.
func (ix *IndexRange) OutCols([][]OutCol) []OutCol { return ix.Cols }

// RemoteScan reads a remote table through IOpenRowset (§4.1.2 "remote scan
// is simply a sequential scan on remote table").
type RemoteScan struct {
	Src  *Source
	Cols []OutCol
}

// OpName implements Operator.
func (r *RemoteScan) OpName() string { return "RemoteScan" }

// Logical implements Operator.
func (r *RemoteScan) Logical() bool { return false }

// Digest implements Operator.
func (r *RemoteScan) Digest() string { return r.Src.String() }

// OutCols implements Operator.
func (r *RemoteScan) OutCols([][]OutCol) []OutCol { return r.Cols }

// RemoteRange accesses a remote table via its index (IRowsetIndex):
// "remote range accesses a remote table via indexes" (§4.1.2). Bounds may
// contain parameters, making this the parameterized inner side of a loop
// join (remote fetch by key).
type RemoteRange struct {
	Src    *Source
	Index  string
	Lo, Hi RangeBound
	Cols   []OutCol
	Order  Ordering
}

// OpName implements Operator.
func (r *RemoteRange) OpName() string { return "RemoteRange" }

// Logical implements Operator.
func (r *RemoteRange) Logical() bool { return false }

// Digest implements Operator.
func (r *RemoteRange) Digest() string {
	return fmt.Sprintf("%s.%s lo=%s hi=%s", r.Src, r.Index, r.Lo.digest(), r.Hi.digest())
}

// OutCols implements Operator.
func (r *RemoteRange) OutCols([][]OutCol) []OutCol { return r.Cols }

// RemoteFetch locates base-table rows from bookmark values produced by its
// child (IRowsetLocate): "remote fetch accesses a remote table via
// 'bookmark'" (§4.1.2). The full-text integration (Figure 2) uses it to
// join (KEY, RANK) rowsets back to base rows.
type RemoteFetch struct {
	Src *Source
	// KeyCol is the child column carrying bookmarks.
	KeyCol expr.ColumnID
	// Cols are the fetched base-table columns appended to the child's.
	Cols []OutCol
}

// OpName implements Operator.
func (r *RemoteFetch) OpName() string { return "RemoteFetch" }

// Logical implements Operator.
func (r *RemoteFetch) Logical() bool { return false }

// Digest implements Operator.
func (r *RemoteFetch) Digest() string {
	return fmt.Sprintf("%s key=col%d", r.Src, r.KeyCol)
}

// OutCols implements Operator.
func (r *RemoteFetch) OutCols(kids [][]OutCol) []OutCol {
	out := append([]OutCol{}, kids[0]...)
	return append(out, r.Cols...)
}

// RemoteQuery ships a decoded SQL statement to a linked server and consumes
// the result (§4.1.2 "build remote query"). The text references two kinds
// of parameter: the statement's own (Params, valued from the execution
// context, including the correlation parameters a loop join binds) and the
// predicate constants the decoder lifted out of the text (Binds, valued
// here), so the text depends only on the plan's shape.
type RemoteQuery struct {
	Server string
	SQL    string
	Cols   []OutCol
	// Params names the statement parameters the text references.
	Params []string
	// Binds are the lifted constants, in the order the text names them.
	Binds []Bind
}

// Bind is one predicate constant the decoder lifted into a generated
// parameter. Lit is the literal the text would hold in its place, in the
// dialect's form (date format included).
type Bind struct {
	Name string
	Val  sqltypes.Value
	Lit  string
}

// OpName implements Operator.
func (r *RemoteQuery) OpName() string { return "RemoteQuery" }

// Logical implements Operator.
func (r *RemoteQuery) Logical() bool { return false }

// Digest implements Operator. The bound values are part of it: two pushed
// statements that differ only in a lifted constant are different operators.
func (r *RemoteQuery) Digest() string {
	if len(r.Binds) == 0 {
		return fmt.Sprintf("%s [%s]", r.Server, r.SQL)
	}
	binds := make([]string, len(r.Binds))
	for i, b := range r.Binds {
		binds[i] = fmt.Sprintf("@%s=%s %s", b.Name, b.Val.Kind(), b.Val)
	}
	return fmt.Sprintf("%s [%s] binds=%s", r.Server, r.SQL, strings.Join(binds, ","))
}

// OutCols implements Operator.
func (r *RemoteQuery) OutCols([][]OutCol) []OutCol { return r.Cols }

// LiteralSQL is the statement with every bind written back as its literal:
// the text a dialect without parameters would receive, runnable on its own.
// Diagnostics (EXPLAIN ANALYZE, the recorded remote texts) report this form.
// Quoted strings and quoted identifiers are copied through untouched, so a
// LIKE pattern or a column name that happens to contain "@" never matches.
func (r *RemoteQuery) LiteralSQL() string {
	if len(r.Binds) == 0 {
		return r.SQL
	}
	sql := r.SQL
	var b strings.Builder
	b.Grow(len(sql))
	for i := 0; i < len(sql); {
		switch c := sql[i]; c {
		case '\'', '"', '[':
			end := quotedEnd(sql, i)
			b.WriteString(sql[i:end])
			i = end
		case '@':
			j := i + 1
			for j < len(sql) && isParamByte(sql[j]) {
				j++
			}
			b.WriteString(bindLiteral(r.Binds, sql[i:j]))
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// quotedEnd returns the index just past the quoted run opening at sql[i]; a
// doubled closing quote inside a string literal is an escape.
func quotedEnd(sql string, i int) int {
	closing := sql[i]
	if closing == '[' {
		closing = ']'
	}
	for j := i + 1; j < len(sql); j++ {
		if sql[j] != closing {
			continue
		}
		if closing == '\'' && j+1 < len(sql) && sql[j+1] == '\'' {
			j++
			continue
		}
		return j + 1
	}
	return len(sql)
}

// bindLiteral returns the literal of the bind token ("@name") names, or the
// token itself when it names a statement parameter.
func bindLiteral(binds []Bind, token string) string {
	for _, b := range binds {
		if token[1:] == b.Name {
			return b.Lit
		}
	}
	return token
}

// isParamByte reports whether c continues a parameter name (the parser's
// identifier characters).
func isParamByte(c byte) bool {
	return c == '_' || c == '#' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// ProviderCommand executes a command in the provider's own query language
// (Table 1): full-text CONTAINS queries against the search service, and
// OPENQUERY pass-through text (§3.3 "pass-through queries").
type ProviderCommand struct {
	Src  *Source
	Cols []OutCol
}

// OpName implements Operator.
func (p *ProviderCommand) OpName() string { return "ProviderCommand" }

// Logical implements Operator.
func (p *ProviderCommand) Logical() bool { return false }

// Digest implements Operator.
func (p *ProviderCommand) Digest() string { return p.Src.String() }

// OutCols implements Operator.
func (p *ProviderCommand) OutCols([][]OutCol) []OutCol { return p.Cols }

// Filter is the physical row filter.
type Filter struct {
	Pred expr.Expr
}

// OpName implements Operator.
func (f *Filter) OpName() string { return "Filter" }

// Logical implements Operator.
func (f *Filter) Logical() bool { return false }

// Digest implements Operator.
func (f *Filter) Digest() string { return exprDigest(f.Pred) }

// OutCols implements Operator.
func (f *Filter) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// StartupFilter evaluates a parameter-only predicate once, before opening
// its child; if false, the child never executes (§4.1.5).
type StartupFilter struct {
	Pred expr.Expr
}

// OpName implements Operator.
func (f *StartupFilter) OpName() string { return "StartupFilter" }

// Logical implements Operator.
func (f *StartupFilter) Logical() bool { return false }

// Digest implements Operator.
func (f *StartupFilter) Digest() string { return "STARTUP(" + exprDigest(f.Pred) + ")" }

// OutCols implements Operator.
func (f *StartupFilter) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// Compute is the physical projection.
type Compute struct {
	Exprs []ProjExpr
}

// OpName implements Operator.
func (c *Compute) OpName() string { return "Compute" }

// Logical implements Operator.
func (c *Compute) Logical() bool { return false }

// Digest implements Operator.
func (c *Compute) Digest() string { return (&Project{Exprs: c.Exprs}).Digest() }

// OutCols implements Operator.
func (c *Compute) OutCols([][]OutCol) []OutCol {
	out := make([]OutCol, len(c.Exprs))
	for i, pe := range c.Exprs {
		out[i] = pe.Out
	}
	return out
}

// HashJoin builds a hash table on the right input and probes with the left.
type HashJoin struct {
	Type     JoinType
	Pairs    []expr.EquiPair
	Residual expr.Expr
}

// OpName implements Operator.
func (h *HashJoin) OpName() string { return "HashJoin" }

// Logical implements Operator.
func (h *HashJoin) Logical() bool { return false }

// Digest implements Operator.
func (h *HashJoin) Digest() string {
	return fmt.Sprintf("%s pairs=%v res=%s", h.Type, h.Pairs, exprDigest(h.Residual))
}

// OutCols implements Operator.
func (h *HashJoin) OutCols(kids [][]OutCol) []OutCol {
	return (&Join{Type: h.Type}).OutCols(kids)
}

// LoopJoin re-executes its right child per left row. When ParamMap is
// non-empty the right child is parameterized: left-row column values bind
// to the named parameters before each re-execution (the paper's
// parameterization rule, §4.1.2).
type LoopJoin struct {
	Type JoinType
	On   expr.Expr
	// ParamMap binds right-side parameter names to left-side ColumnIDs.
	ParamMap map[string]expr.ColumnID
}

// OpName implements Operator.
func (l *LoopJoin) OpName() string { return "LoopJoin" }

// Logical implements Operator.
func (l *LoopJoin) Logical() bool { return false }

// Digest implements Operator.
func (l *LoopJoin) Digest() string {
	ps := ""
	if len(l.ParamMap) > 0 {
		names := make([]string, 0, len(l.ParamMap))
		for n, id := range l.ParamMap {
			names = append(names, fmt.Sprintf("@%s=col%d", n, id))
		}
		sort.Strings(names)
		ps = " params=" + strings.Join(names, ",")
	}
	return fmt.Sprintf("%s on=%s%s", l.Type, exprDigest(l.On), ps)
}

// OutCols implements Operator.
func (l *LoopJoin) OutCols(kids [][]OutCol) []OutCol {
	return (&Join{Type: l.Type}).OutCols(kids)
}

// BatchLoopJoin is the batched parameterized join (§4.1.2 extended): the
// executor accumulates up to BatchSize left rows, binds their join-key
// values into the right child's IN-list parameter slots
// (<ParamBase>_<pair>_<slot>), executes the right side once per batch, and
// hash-matches the returned rows back to the buffered left rows. Join
// semantics (inner/left-outer/semi/anti, duplicate keys, NULL keys) are
// identical to the serial LoopJoin: the shipped IN-list only prefilters;
// match decisions happen locally on Pairs plus the On residual.
type BatchLoopJoin struct {
	Type      JoinType
	On        expr.Expr
	Pairs     []expr.EquiPair
	ParamBase string
	BatchSize int
}

// OpName implements Operator.
func (b *BatchLoopJoin) OpName() string { return "BatchLoopJoin" }

// Logical implements Operator.
func (b *BatchLoopJoin) Logical() bool { return false }

// Digest implements Operator.
func (b *BatchLoopJoin) Digest() string {
	return fmt.Sprintf("%s on=%s pairs=%v base=%s k=%d",
		b.Type, exprDigest(b.On), b.Pairs, b.ParamBase, b.BatchSize)
}

// OutCols implements Operator.
func (b *BatchLoopJoin) OutCols(kids [][]OutCol) []OutCol {
	return (&Join{Type: b.Type}).OutCols(kids)
}

// StreamAgg aggregates input already ordered by the grouping columns.
type StreamAgg struct {
	GroupCols []OutCol
	Aggs      []AggSpec
}

// OpName implements Operator.
func (s *StreamAgg) OpName() string { return "StreamAgg" }

// Logical implements Operator.
func (s *StreamAgg) Logical() bool { return false }

// Digest implements Operator.
func (s *StreamAgg) Digest() string {
	return (&GroupBy{GroupCols: s.GroupCols, Aggs: s.Aggs}).Digest()
}

// OutCols implements Operator.
func (s *StreamAgg) OutCols([][]OutCol) []OutCol {
	return (&GroupBy{GroupCols: s.GroupCols, Aggs: s.Aggs}).OutCols(nil)
}

// HashAgg aggregates with a hash table on the grouping columns.
type HashAgg struct {
	GroupCols []OutCol
	Aggs      []AggSpec
}

// OpName implements Operator.
func (h *HashAgg) OpName() string { return "HashAgg" }

// Logical implements Operator.
func (h *HashAgg) Logical() bool { return false }

// Digest implements Operator.
func (h *HashAgg) Digest() string {
	return (&GroupBy{GroupCols: h.GroupCols, Aggs: h.Aggs}).Digest()
}

// OutCols implements Operator.
func (h *HashAgg) OutCols([][]OutCol) []OutCol {
	return (&GroupBy{GroupCols: h.GroupCols, Aggs: h.Aggs}).OutCols(nil)
}

// Sort is the order-delivering enforcer.
type Sort struct {
	Order Ordering
}

// OpName implements Operator.
func (s *Sort) OpName() string { return "Sort" }

// Logical implements Operator.
func (s *Sort) Logical() bool { return false }

// Digest implements Operator.
func (s *Sort) Digest() string { return s.Order.String() }

// OutCols implements Operator.
func (s *Sort) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// TopN returns the first N rows of its (ordered) input.
type TopN struct {
	N     int64
	Order Ordering
}

// OpName implements Operator.
func (t *TopN) OpName() string { return "TopN" }

// Logical implements Operator.
func (t *TopN) Logical() bool { return false }

// Digest implements Operator.
func (t *TopN) Digest() string { return fmt.Sprintf("n=%d order=[%s]", t.N, t.Order) }

// OutCols implements Operator.
func (t *TopN) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// Concat is the physical UNION ALL.
type Concat struct {
	OutColsList []OutCol
	InMaps      [][]expr.ColumnID
}

// OpName implements Operator.
func (c *Concat) OpName() string { return "Concat" }

// Logical implements Operator.
func (c *Concat) Logical() bool { return false }

// Digest implements Operator.
func (c *Concat) Digest() string {
	return (&UnionAll{OutColsList: c.OutColsList, InMaps: c.InMaps}).Digest()
}

// OutCols implements Operator.
func (c *Concat) OutCols([][]OutCol) []OutCol { return c.OutColsList }

// Spool materializes its child on first open and replays the buffered rows
// on rescans — "a copy of the remote results for subsequent accesses within
// the same query context without having to request the data from the remote
// sources again" (§4.1.2).
type Spool struct{}

// OpName implements Operator.
func (s *Spool) OpName() string { return "Spool" }

// Logical implements Operator.
func (s *Spool) Logical() bool { return false }

// Digest implements Operator.
func (s *Spool) Digest() string { return "" }

// OutCols implements Operator.
func (s *Spool) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// ConstScan is the physical Values.
type ConstScan struct {
	Cols []OutCol
	Rows [][]expr.Expr
}

// OpName implements Operator.
func (c *ConstScan) OpName() string { return "ConstScan" }

// Logical implements Operator.
func (c *ConstScan) Logical() bool { return false }

// Digest implements Operator.
func (c *ConstScan) Digest() string {
	return (&Values{Cols: c.Cols, Rows: c.Rows}).Digest()
}

// OutCols implements Operator.
func (c *ConstScan) OutCols([][]OutCol) []OutCol { return c.Cols }

// EmptyScan produces no rows; static pruning reduces provably-empty
// subtrees to it (§4.1.5).
type EmptyScan struct {
	Cols []OutCol
}

// OpName implements Operator.
func (e *EmptyScan) OpName() string { return "EmptyScan" }

// Logical implements Operator.
func (e *EmptyScan) Logical() bool { return false }

// Digest implements Operator.
func (e *EmptyScan) Digest() string { return fmt.Sprintf("cols=%v", IDs(e.Cols)) }

// OutCols implements Operator.
func (e *EmptyScan) OutCols([][]OutCol) []OutCol { return e.Cols }
