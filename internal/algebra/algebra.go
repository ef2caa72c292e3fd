// Package algebra defines the relational operator algebra used throughout
// the optimizer and executor, preserving the paper's central design split
// (§4.1.1): logical operators describe *what* ("Join", "GroupBy", "Get") and
// physical operators describe *how* ("HashJoin", "StreamAgg", "RemoteScan").
// Every operator is a unique node in a query tree — "A JOIN B JOIN C" is two
// join nodes and three gets, never a single n-ary node.
//
// Columns are identified by query-global expr.ColumnID; each operator
// derives its output column list from its children's, which is what lets
// exploration rules reorder subtrees without rewriting expressions.
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"dhqp/internal/expr"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// OutCol describes one output column of an operator.
type OutCol struct {
	ID   expr.ColumnID
	Name string
	Kind sqltypes.Kind
}

// IDs extracts the ColumnIDs of a column list.
func IDs(cols []OutCol) []expr.ColumnID {
	out := make([]expr.ColumnID, len(cols))
	for i, c := range cols {
		out[i] = c.ID
	}
	return out
}

// ColSetOf builds a ColSet from a column list.
func ColSetOf(cols []OutCol) expr.ColSet {
	s := expr.ColSet{}
	for _, c := range cols {
		s.Add(c.ID)
	}
	return s
}

// Operator is implemented by every logical and physical operator. Digest
// must uniquely identify the operator's payload (excluding children); the
// Memo uses it to deduplicate group expressions.
type Operator interface {
	// OpName names the operator for plans and digests.
	OpName() string
	// Logical reports whether this is a logical (true) or physical
	// (false) operator.
	Logical() bool
	// Digest serializes the operator payload, excluding children.
	Digest() string
	// OutCols derives output columns from the children's output columns.
	OutCols(kids [][]OutCol) []OutCol
}

// Est carries the optimizer's estimates for a plan node: the expected
// output cardinality and the cumulative cost of the subtree. The optimizer
// fills it when extracting the winning plan; trees built before optimization
// (binder output) leave it nil. EXPLAIN ANALYZE renders it against the
// actual counters.
type Est struct {
	// Rows is the estimated output cardinality.
	Rows float64
	// Cost is the estimated cumulative cost of the subtree.
	Cost float64
}

// Node is an operator tree node (used by the binder before Memo insertion
// and by the final extracted plan).
type Node struct {
	Op   Operator
	Kids []*Node
	// Est is the optimizer's estimate annotation (nil on unoptimized trees).
	Est *Est
}

// NewNode builds a node.
func NewNode(op Operator, kids ...*Node) *Node { return &Node{Op: op, Kids: kids} }

// OutCols derives the node's output columns recursively.
func (n *Node) OutCols() []OutCol {
	kidCols := make([][]OutCol, len(n.Kids))
	for i, k := range n.Kids {
		kidCols[i] = k.OutCols()
	}
	return n.Op.OutCols(kidCols)
}

// String renders an indented plan tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0, nil)
	return b.String()
}

// RenderAnnotated renders the plan tree with a per-node annotation suffix
// (EXPLAIN ANALYZE's estimated-vs-actual columns). annot may return "" to
// leave a line bare.
func (n *Node) RenderAnnotated(annot func(*Node) string) string {
	var b strings.Builder
	n.render(&b, 0, annot)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int, annot func(*Node) string) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op.OpName())
	if d := n.Op.Digest(); d != "" {
		b.WriteString("(")
		b.WriteString(d)
		b.WriteString(")")
	}
	if annot != nil {
		if a := annot(n); a != "" {
			b.WriteString("  ")
			b.WriteString(a)
		}
	}
	b.WriteString("\n")
	for _, k := range n.Kids {
		k.render(b, depth+1, annot)
	}
}

// SourceKind distinguishes the flavors of external rowset a Get reaches.
type SourceKind int

// Source kinds.
const (
	// SourceBaseTable is an ordinary (local or linked-server) table.
	SourceBaseTable SourceKind = iota
	// SourceFullText is a full-text search invocation returning
	// (KEY, RANK) rows from the search service (§2.3).
	SourceFullText
	// SourcePassThrough is an OPENQUERY pass-through command in the
	// provider's own language (§3.3).
	SourcePassThrough
	// SourceMailTVF is the MakeTable mail table-valued function (§2.4).
	SourceMailTVF
)

// Source identifies where a Get's rows come from. Server == "" means the
// local storage engine; otherwise a linked server name.
type Source struct {
	Kind    SourceKind
	Server  string
	Catalog string
	Schema  string
	Table   string
	// Def is the resolved table schema (base tables; synthesized for the
	// other kinds).
	Def *schema.Table
	// Query carries the full-text query or pass-through command text.
	Query string
	// Path is the mail file path for SourceMailTVF.
	Path string
}

// Bookmark names the column a local Get, TableScan or IndexRange may output
// after the table's own: each row's bookmark, the INT that RemoteFetch
// consumes (§4.1.2) and a write hands back to the storage engine. No SQL
// identifier can spell it.
const Bookmark = "%%bookmark%%"

// IsRemote reports whether the source lives behind a linked server.
func (s *Source) IsRemote() bool { return s.Server != "" }

// String renders the source name.
func (s *Source) String() string {
	switch s.Kind {
	case SourceFullText:
		return fmt.Sprintf("fulltext:%s[%s]", s.Table, s.Query)
	case SourcePassThrough:
		return fmt.Sprintf("openquery:%s[%s]", s.Server, s.Query)
	case SourceMailTVF:
		return fmt.Sprintf("mail:%s", s.Path)
	default:
		n := schema.ObjectName{Server: s.Server, Catalog: s.Catalog, Schema: s.Schema, Object: s.Table}
		return n.String()
	}
}

// IsRemoteOp reports whether a physical operator's rows cross a network
// link: it reaches a linked server or an external service (full-text, mail)
// rather than the local storage engine. The parallel exchange layer and the
// cost model both use it to decide when fan-out overlaps link latency.
func IsRemoteOp(op Operator) bool {
	switch op := op.(type) {
	case *TableScan:
		return op.Src.IsRemote()
	case *IndexRange:
		return op.Src.IsRemote()
	case *RemoteScan:
		return op.Src.IsRemote()
	case *RemoteRange:
		return op.Src.IsRemote()
	case *RemoteQuery:
		return op.Server != ""
	case *RemoteFetch:
		return op.Src.IsRemote()
	case *ProviderCommand:
		return op.Src.IsRemote()
	default:
		return false
	}
}

// HasRemoteOp reports whether any operator in the subtree is remote (the
// subtree's execution involves at least one network round trip).
func HasRemoteOp(n *Node) bool {
	if IsRemoteOp(n.Op) {
		return true
	}
	for _, k := range n.Kids {
		if HasRemoteOp(k) {
			return true
		}
	}
	return false
}

// serverOf names the server a remote operator reaches ("" for local ops).
func serverOf(op Operator) string {
	switch op := op.(type) {
	case *TableScan:
		return op.Src.Server
	case *IndexRange:
		return op.Src.Server
	case *RemoteScan:
		return op.Src.Server
	case *RemoteRange:
		return op.Src.Server
	case *RemoteQuery:
		return op.Server
	case *RemoteFetch:
		return op.Src.Server
	case *ProviderCommand:
		return op.Src.Server
	default:
		return ""
	}
}

// RemoteServers lists (deduplicated, in first-visit order) the linked
// servers a subtree reaches. Partial-failure diagnostics use it to name
// which fan-out branch — which server — an error came from.
func RemoteServers(n *Node) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Node)
	walk = func(n *Node) {
		if s := serverOf(n.Op); s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(n)
	return out
}

// OrderCol is one key of an ordering specification (a physical property).
type OrderCol struct {
	Col  expr.ColumnID
	Desc bool
}

// Ordering is a physical ordering specification.
type Ordering []OrderCol

// String renders the ordering.
func (o Ordering) String() string {
	parts := make([]string, len(o))
	for i, c := range o {
		d := ""
		if c.Desc {
			d = " DESC"
		}
		parts[i] = fmt.Sprintf("col%d%s", c.Col, d)
	}
	return strings.Join(parts, ", ")
}

// Equal reports whether two orderings are identical.
func (o Ordering) Equal(p Ordering) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// SatisfiedBy reports whether an actual ordering delivers this required
// ordering (the actual may be stronger, i.e. have extra trailing keys).
func (o Ordering) SatisfiedBy(actual Ordering) bool {
	if len(actual) < len(o) {
		return false
	}
	for i := range o {
		if o[i] != actual[i] {
			return false
		}
	}
	return true
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(expr) or COUNT(*) when Arg is nil
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate computation in a GroupBy.
type AggSpec struct {
	Out      OutCol
	Func     AggFunc
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool
}

func (a AggSpec) String() string { return string(a.append(nil)) }

// append appends the aggregate as String prints it. The output ColumnID is
// part of the identity: two aggregations that compute the same function
// into different columns are different operators (the Memo dedups by this
// text).
func (a AggSpec) append(b []byte) []byte {
	b = append(append(b, a.Func.String()...), '(')
	if a.Distinct {
		b = append(b, "DISTINCT "...)
	}
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	b = append(append(append(append(b, arg...), ") AS "...), a.Out.Name...), '#')
	return strconv.AppendInt(b, int64(a.Out.ID), 10)
}

// appendIDs appends ids as fmt's %v prints them: [1 2 3].
func appendIDs(b []byte, ids []expr.ColumnID) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// ProjExpr is one projected expression.
type ProjExpr struct {
	Out OutCol
	E   expr.Expr
}

// JoinType enumerates join semantics.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	SemiJoin
	AntiJoin
)

// String returns the SQL-ish name.
func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "Inner"
	case LeftOuterJoin:
		return "LeftOuter"
	case SemiJoin:
		return "Semi"
	case AntiJoin:
		return "Anti"
	default:
		return fmt.Sprintf("JoinType(%d)", int(t))
	}
}

func exprDigest(e expr.Expr) string {
	if e == nil {
		return "<nil>"
	}
	return e.String()
}
