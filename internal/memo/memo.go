// Package memo implements the Cascades Memo (§4.1.1): a structure storing
// logically-equivalent alternatives in groups. A query tree is represented
// by connections between groups rather than operators, which lets rules
// match patterns without comparing whole trees and guarantees that a newly
// generated alternative that already exists costs no further search effort.
//
// Each group carries logical (group) properties — output columns, keys,
// cardinality estimate and constraint domains — derived once per group, and
// caches winners (cheapest physical alternatives) per required physical
// property set.
package memo

import (
	"fmt"
	"strconv"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/stats"
)

// GroupID identifies a group within one Memo.
type GroupID int

// GroupExpr is one operator whose children are groups.
type GroupExpr struct {
	Op    algebra.Operator
	Kids  []GroupID
	Group GroupID
	// fired tracks exploration rules already applied to this expression
	// (rule name → true), preventing re-derivation.
	fired map[string]bool
}

// Fired reports whether the named rule already ran on this expression.
func (e *GroupExpr) Fired(rule string) bool { return e.fired[rule] }

// MarkFired records a rule application.
func (e *GroupExpr) MarkFired(rule string) {
	if e.fired == nil {
		e.fired = map[string]bool{}
	}
	e.fired[rule] = true
}

// digest returns the dedup key for an operator applied to child groups.
func digest(op algebra.Operator, kids []GroupID) string {
	name, d := op.OpName(), op.Digest()
	var b strings.Builder
	b.Grow(len(name) + len(d) + 1 + 6*len(kids))
	b.WriteString(name)
	b.WriteByte('|')
	b.WriteString(d)
	var num [20]byte
	for _, k := range kids {
		b.WriteString("|g")
		b.Write(strconv.AppendInt(num[:0], int64(k), 10))
	}
	return b.String()
}

// PhysProps is the physical property set required of (or delivered by) a
// plan: in this engine, ordering (the paper's canonical example).
type PhysProps struct {
	Order algebra.Ordering
}

// Any is the empty requirement.
var Any = PhysProps{}

// Winner is the cheapest known plan for (group, required props). Plan is
// an optimizer-owned payload (the chosen physical subtree).
type Winner struct {
	Plan any
	// Cost is the cumulative estimated cost of the first execution.
	Cost float64
	// RescanCost estimates re-executing the plan (loop-join inner sides);
	// spools make it cheap, remote scans keep it at full cost (§4.1.2's
	// spool-over-remote motivation).
	RescanCost float64
	// Provides is the ordering the winning plan actually delivers.
	Provides algebra.Ordering
}

// LogicalProps are the paper's group properties.
type LogicalProps struct {
	// OutCols are the columns every alternative in the group produces.
	OutCols []algebra.OutCol
	// Cardinality is the estimated output row count.
	Cardinality float64
	// RowWidth is the estimated encoded row size in bytes (drives the
	// network-traffic cost model).
	RowWidth float64
	// Domains tracks the constraint-framework domain of each column
	// (§4.1.5).
	Domains constraint.Map
	// Servers is the set of linked servers the subtree touches; "" marks
	// local sources. A single-server subtree is a remoting candidate.
	Servers map[string]bool
	// Unsatisfiable is set when the constraint framework proved the
	// group's output empty at compile time (static pruning).
	Unsatisfiable bool
}

// SoleServer returns the single remote server this group touches, or ""
// when the group is local-only or spans multiple servers.
func (p *LogicalProps) SoleServer() (string, bool) {
	if len(p.Servers) != 1 {
		return "", false
	}
	for s := range p.Servers {
		if s == "" {
			return "", false
		}
		return s, true
	}
	return "", false
}

// Group is one equivalence class of expressions.
type Group struct {
	ID    GroupID
	Exprs []*GroupExpr
	Props *LogicalProps
	// winners holds one Winner per required property set optimized.
	winners []winner
	// ExploredPhase tracks the highest phase whose exploration reached a
	// fixpoint for this group.
	ExploredPhase int
}

// Metadata supplies per-source statistics to property derivation; the
// engine implements it over the catalog and the providers' statistics
// rowsets (§3.2.4).
type Metadata interface {
	// TableCardinality returns the row-count estimate for a source.
	TableCardinality(src *algebra.Source) float64
	// Histogram returns the histogram for a column, or nil.
	Histogram(col expr.ColumnID) *stats.Histogram
	// CheckDomains returns the domains implied by the source's CHECK
	// constraints, keyed by the Get's output ColumnIDs.
	CheckDomains(src *algebra.Source, cols []algebra.OutCol) constraint.Map
}

// Memo is the search structure.
type Memo struct {
	Groups []*Group
	index  map[string]GroupID // expr digest -> owning group
	md     Metadata
	est    *stats.Estimator
}

// New returns an empty memo using md for property derivation.
func New(md Metadata) *Memo {
	m := &Memo{index: map[string]GroupID{}, md: md}
	m.est = &stats.Estimator{Lookup: func(id expr.ColumnID) *stats.Histogram {
		if md == nil {
			return nil
		}
		return md.Histogram(id)
	}}
	return m
}

// Estimator exposes the memo's selectivity estimator.
func (m *Memo) Estimator() *stats.Estimator { return m.est }

// Group returns the group by ID.
func (m *Memo) Group(id GroupID) *Group { return m.Groups[id] }

// Insert adds a whole operator tree, returning its root group.
func (m *Memo) Insert(n *algebra.Node) GroupID {
	kids := make([]GroupID, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = m.Insert(k)
	}
	return m.InsertExpr(n.Op, kids, -1)
}

// InsertExpr adds one operator over existing groups. target < 0 creates a
// new group when the expression is unknown; otherwise the expression joins
// the target group (rules use this to add alternatives). It returns the
// group owning the expression.
func (m *Memo) InsertExpr(op algebra.Operator, kids []GroupID, target GroupID) GroupID {
	d := digest(op, kids)
	if gid, ok := m.index[d]; ok {
		// Already present: no extra work to re-search this portion of
		// the space (§4.1.1).
		return gid
	}
	var g *Group
	if target >= 0 {
		g = m.Groups[target]
	} else {
		g = &Group{ID: GroupID(len(m.Groups))}
		m.Groups = append(m.Groups, g)
	}
	e := &GroupExpr{Op: op, Kids: kids, Group: g.ID}
	g.Exprs = append(g.Exprs, e)
	m.index[d] = g.ID
	if g.Props == nil && op.Logical() {
		g.Props = m.deriveProps(e)
	}
	return g.ID
}

// XChild is either an existing group or a nested new node.
type XChild struct {
	Group GroupID
	Node  *XNode
}

// XNode describes a new expression tree whose leaves may reference existing
// groups; rules return them when an alternative introduces intermediate
// operators (e.g. join associativity creating a new join group).
type XNode struct {
	Op   algebra.Operator
	Kids []XChild
}

// GroupChild wraps an existing group as an XChild.
func GroupChild(g GroupID) XChild { return XChild{Group: g, Node: nil} }

// NodeChild wraps a nested node as an XChild.
func NodeChild(n *XNode) XChild { return XChild{Node: n} }

// InsertX inserts an XNode; target applies to the root only.
func (m *Memo) InsertX(x *XNode, target GroupID) GroupID {
	kids := make([]GroupID, len(x.Kids))
	for i, c := range x.Kids {
		if c.Node != nil {
			kids[i] = m.InsertX(c.Node, -1)
		} else {
			kids[i] = c.Group
		}
	}
	return m.InsertExpr(x.Op, kids, target)
}

type winner struct {
	props PhysProps
	w     *Winner
}

// Winner returns the cached winner for (group, props).
func (m *Memo) Winner(g GroupID, props PhysProps) (*Winner, bool) {
	for _, e := range m.Groups[g].winners {
		if e.props.Order.Equal(props.Order) {
			return e.w, true
		}
	}
	return nil, false
}

// SetWinner caches a winner.
func (m *Memo) SetWinner(g GroupID, props PhysProps, w *Winner) {
	grp := m.Groups[g]
	for i := range grp.winners {
		if grp.winners[i].props.Order.Equal(props.Order) {
			grp.winners[i].w = w
			return
		}
	}
	grp.winners = append(grp.winners, winner{props, w})
}

// ClearWinners drops all winner caches (between optimization phases, whose
// rule sets differ).
func (m *Memo) ClearWinners() {
	for _, g := range m.Groups {
		g.winners = g.winners[:0]
	}
}

// ExprCount reports the total number of expressions across groups; the
// exploration fixpoint loop uses it to detect progress.
func (m *Memo) ExprCount() int { return len(m.index) }

// ExtractLogical materializes one logical tree from a group, preferring
// expressions accepted by pick (when non-nil); it falls back to any logical
// expression. This is the framework mechanism of §4.1.4: when the chosen
// alternative in a group is not remotable, "pick any remotable tree from the
// same group in the Memo" — equivalence guarantees identical results.
func (m *Memo) ExtractLogical(g GroupID, pick func(*GroupExpr) bool) *algebra.Node {
	grp := m.Groups[g]
	var chosen *GroupExpr
	for _, e := range grp.Exprs {
		if !e.Op.Logical() {
			continue
		}
		if pick == nil || pick(e) {
			chosen = e
			break
		}
	}
	if chosen == nil {
		for _, e := range grp.Exprs {
			if e.Op.Logical() {
				chosen = e
				break
			}
		}
	}
	if chosen == nil {
		return nil
	}
	kids := make([]*algebra.Node, len(chosen.Kids))
	for i, k := range chosen.Kids {
		kids[i] = m.ExtractLogical(k, pick)
		if kids[i] == nil {
			return nil
		}
	}
	return algebra.NewNode(chosen.Op, kids...)
}

// String renders the memo for diagnostics.
func (m *Memo) String() string {
	var b strings.Builder
	for _, g := range m.Groups {
		fmt.Fprintf(&b, "G%d", g.ID)
		if g.Props != nil {
			fmt.Fprintf(&b, " [card=%.1f cols=%v]", g.Props.Cardinality, algebra.IDs(g.Props.OutCols))
		}
		b.WriteString(":\n")
		for _, e := range g.Exprs {
			fmt.Fprintf(&b, "  %s(%s)", e.Op.OpName(), e.Op.Digest())
			for _, k := range e.Kids {
				fmt.Fprintf(&b, " G%d", k)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
