package rules

import (
	"slices"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/decoder"
	"dhqp/internal/expr"
	"dhqp/internal/memo"
	"dhqp/internal/oledb"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
)

// Candidate is one physical alternative generated by an implementation
// rule. Kids reference either memo groups (optimized recursively) or fixed
// physical subtrees the rule fully determined (e.g. Spool over a group,
// ProviderCommand leaves).
type Candidate struct {
	Op   algebra.Operator
	Kids []Kid
	// Provides is the ordering the plan delivers when children deliver
	// their required orderings.
	Provides algebra.Ordering
	// PassOrderThrough marks order-preserving unary operators: the parent's
	// required ordering flows to the (single) group child, and the
	// candidate then provides it.
	PassOrderThrough bool
	// Card/Width estimate the candidate's output when it is a *fixed* leaf
	// or differs from the group estimate (IndexRange after a bound); zero
	// means "use the group properties".
	Card  float64
	Width float64
	// RemoteWork estimates work performed remotely (RemoteQuery costing).
	RemoteWork float64
	// StartupProb scales expected cost for startup-filtered plans
	// (probability the subtree actually runs); zero means 1.
	StartupProb float64
	// Pushed is a RemoteQuery's logical tree, decodable in Caps's dialect:
	// its text is written only if the chosen plan keeps the RemoteQuery.
	Pushed *algebra.Node
	Caps   oledb.Capabilities
}

// Kid is one candidate child.
type Kid struct {
	Group    memo.GroupID
	Required memo.PhysProps
	Fixed    *Candidate
}

// GroupKid references a memo group child.
func GroupKid(g memo.GroupID, req memo.PhysProps) Kid {
	return Kid{Group: g, Required: req}
}

// FixedKid embeds a fully-determined physical subtree.
func FixedKid(c *Candidate) Kid { return Kid{Fixed: c} }

// ImplementationRule generates physical alternatives for a logical group
// expression (§4.1.1: "implementation rules generate physical alternatives
// for a particular logical query tree").
type ImplementationRule interface {
	Name() string
	MinPhase() Phase
	Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate
}

// implementationRules registry.
var implementationRules = []ImplementationRule{
	&ImplGet{},
	&ImplSelect{},
	&ImplProject{},
	&ImplJoin{},
	&ImplApply{},
	&ImplBatchApply{},
	&ImplGroupBy{},
	&ImplTop{},
	&ImplUnionAll{},
	&ImplValues{},
	&BuildRemoteQuery{},
}

// ImplGuidance enumerates implementation rules applicable to the operator
// at the given phase, in registry order; like Guidance's, the list is
// computed once per (operator type, phase) and shared.
func ImplGuidance(op algebra.Operator, phase Phase) []ImplementationRule {
	return ruleList(implLists, op, phase, func() []ImplementationRule {
		var out []ImplementationRule
		for _, r := range implementationRules {
			if r.MinPhase() <= phase && implMatches(r, op) {
				out = append(out, r)
			}
		}
		return out
	})
}

func implMatches(r ImplementationRule, op algebra.Operator) bool {
	switch r.(type) {
	case *ImplGet:
		_, ok := op.(*algebra.Get)
		return ok
	case *ImplSelect:
		_, ok := op.(*algebra.Select)
		return ok
	case *ImplProject:
		_, ok := op.(*algebra.Project)
		return ok
	case *ImplJoin:
		_, ok := op.(*algebra.Join)
		return ok
	case *ImplApply:
		_, ok := op.(*algebra.Apply)
		return ok
	case *ImplBatchApply:
		_, ok := op.(*algebra.BatchApply)
		return ok
	case *ImplGroupBy:
		_, ok := op.(*algebra.GroupBy)
		return ok
	case *ImplTop:
		_, ok := op.(*algebra.Top)
		return ok
	case *ImplUnionAll:
		_, ok := op.(*algebra.UnionAll)
		return ok
	case *ImplValues:
		_, ok := op.(*algebra.Values)
		return ok
	case *BuildRemoteQuery:
		return op.Logical()
	default:
		return false
	}
}

// ImplGet implements Get as TableScan (local), RemoteScan (linked server /
// mail TVF) or ProviderCommand (full-text, pass-through) — the paper's
// "get(A) can be implemented as TableScan(A) in the local case, or as
// RemoteScan(A) if A is a remote table" (§4.1.3).
type ImplGet struct{}

// Name implements ImplementationRule.
func (*ImplGet) Name() string { return "ImplementGet" }

// MinPhase implements ImplementationRule.
func (*ImplGet) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplGet) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	g := e.Op.(*algebra.Get)
	switch g.Src.Kind {
	case algebra.SourceFullText, algebra.SourcePassThrough:
		return []*Candidate{{Op: &algebra.ProviderCommand{Src: g.Src, Cols: g.Cols}}}
	}
	if g.Src.IsRemote() {
		return []*Candidate{{Op: &algebra.RemoteScan{Src: g.Src, Cols: g.Cols}}}
	}
	return []*Candidate{{Op: &algebra.TableScan{Src: g.Src, Cols: g.Cols}}}
}

// ImplProject implements Project as Compute.
type ImplProject struct{}

// Name implements ImplementationRule.
func (*ImplProject) Name() string { return "ImplementProject" }

// MinPhase implements ImplementationRule.
func (*ImplProject) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplProject) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	p := e.Op.(*algebra.Project)
	return []*Candidate{{
		Op:               &algebra.Compute{Exprs: p.Exprs},
		Kids:             []Kid{GroupKid(e.Kids[0], memo.Any)},
		PassOrderThrough: true,
	}}
}

// ImplValues implements constant relations.
type ImplValues struct{}

// Name implements ImplementationRule.
func (*ImplValues) Name() string { return "ImplementValues" }

// MinPhase implements ImplementationRule.
func (*ImplValues) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplValues) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	v := e.Op.(*algebra.Values)
	if len(v.Rows) == 0 {
		return []*Candidate{{Op: &algebra.EmptyScan{Cols: v.Cols}}}
	}
	return []*Candidate{{Op: &algebra.ConstScan{Cols: v.Cols, Rows: v.Rows}}}
}

// ImplUnionAll implements UNION ALL as Concat.
type ImplUnionAll struct{}

// Name implements ImplementationRule.
func (*ImplUnionAll) Name() string { return "ImplementUnionAll" }

// MinPhase implements ImplementationRule.
func (*ImplUnionAll) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplUnionAll) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	u := e.Op.(*algebra.UnionAll)
	kids := make([]Kid, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = GroupKid(k, memo.Any)
	}
	return []*Candidate{{
		Op:   &algebra.Concat{OutColsList: u.OutColsList, InMaps: u.InMaps},
		Kids: kids,
	}}
}

// ImplTop implements Top as TopN.
type ImplTop struct{}

// Name implements ImplementationRule.
func (*ImplTop) Name() string { return "ImplementTop" }

// MinPhase implements ImplementationRule.
func (*ImplTop) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplTop) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	t := e.Op.(*algebra.Top)
	return []*Candidate{{
		Op:       &algebra.TopN{N: t.N, Order: t.Ordering},
		Kids:     []Kid{GroupKid(e.Kids[0], memo.Any)},
		Provides: t.Ordering,
	}}
}

// ImplGroupBy implements GroupBy as hash or stream aggregation — the
// paper's example implementation rule (§4.1.1).
type ImplGroupBy struct{}

// Name implements ImplementationRule.
func (*ImplGroupBy) Name() string { return "ImplementGroupBy" }

// MinPhase implements ImplementationRule.
func (*ImplGroupBy) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplGroupBy) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	g := e.Op.(*algebra.GroupBy)
	out := []*Candidate{{
		Op:   &algebra.HashAgg{GroupCols: g.GroupCols, Aggs: g.Aggs},
		Kids: []Kid{GroupKid(e.Kids[0], memo.Any)},
	}}
	if len(g.GroupCols) > 0 {
		order := make(algebra.Ordering, len(g.GroupCols))
		for i, c := range g.GroupCols {
			order[i] = algebra.OrderCol{Col: c.ID}
		}
		out = append(out, &Candidate{
			Op:       &algebra.StreamAgg{GroupCols: g.GroupCols, Aggs: g.Aggs},
			Kids:     []Kid{GroupKid(e.Kids[0], memo.PhysProps{Order: order})},
			Provides: order,
		})
	} else {
		// Scalar aggregation streams trivially.
		out = append(out, &Candidate{
			Op:   &algebra.StreamAgg{Aggs: g.Aggs},
			Kids: []Kid{GroupKid(e.Kids[0], memo.Any)},
		})
	}
	return out
}

// ImplJoin implements Join as hash or nested-loop join, including
// the spool-over-remote enforcer variant for rescanned inners (§4.1.2,
// §4.1.4: "it is often beneficial to spool results from a remote source if
// multiple scans of the data are expected").
type ImplJoin struct{}

// Name implements ImplementationRule.
func (*ImplJoin) Name() string { return "ImplementJoin" }

// MinPhase implements ImplementationRule.
func (*ImplJoin) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (*ImplJoin) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	j := e.Op.(*algebra.Join)
	leftCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[0]).Props.OutCols)
	rightCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[1]).Props.OutCols)
	pairs, residual := expr.ExtractEquiJoin(j.On, leftCols, rightCols)

	var out []*Candidate
	if len(pairs) > 0 {
		out = append(out, &Candidate{
			Op:   &algebra.HashJoin{Type: j.Type, Pairs: pairs, Residual: residual},
			Kids: []Kid{GroupKid(e.Kids[0], memo.Any), GroupKid(e.Kids[1], memo.Any)},
		})
	}
	// Nested loops handle any predicate. Two variants: plain (inner
	// re-executes per outer row) and spooled (inner materialized once).
	loop := &algebra.LoopJoin{Type: j.Type, On: j.On}
	out = append(out, &Candidate{
		Op:   loop,
		Kids: []Kid{GroupKid(e.Kids[0], memo.Any), GroupKid(e.Kids[1], memo.Any)},
	})
	if !ctx.DisableSpool {
		out = append(out, &Candidate{
			Op: loop,
			Kids: []Kid{
				GroupKid(e.Kids[0], memo.Any),
				FixedKid(&Candidate{
					Op:   &algebra.Spool{},
					Kids: []Kid{GroupKid(e.Kids[1], memo.Any)},
				}),
			},
		})
	}
	return out
}

// ImplApply implements the correlated Apply as a parameterized loop join;
// its inner side's access paths (parameterized remote query, remote range,
// local index range) fall out of the inner group's own implementation.
type ImplApply struct{}

// Name implements ImplementationRule.
func (*ImplApply) Name() string { return "ImplementApply" }

// MinPhase implements ImplementationRule.
func (*ImplApply) MinPhase() Phase { return PhaseQuick }

// Candidates implements ImplementationRule.
func (*ImplApply) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	a := e.Op.(*algebra.Apply)
	return []*Candidate{{
		Op:   &algebra.LoopJoin{Type: a.Type, On: a.Residual, ParamMap: a.ParamMap},
		Kids: []Kid{GroupKid(e.Kids[0], memo.Any), GroupKid(e.Kids[1], memo.Any)},
	}}
}

// ImplBatchApply implements the batched Apply as a BatchLoopJoin. The
// inner group carries the IN-list select over the remote side, which
// implements as a parameterized remote query via BuildRemoteQuery; the
// batched executor binds K outer keys per inner execution.
type ImplBatchApply struct{}

// Name implements ImplementationRule.
func (*ImplBatchApply) Name() string { return "ImplementBatchApply" }

// MinPhase implements ImplementationRule.
func (*ImplBatchApply) MinPhase() Phase { return PhaseQuick }

// Candidates implements ImplementationRule.
func (*ImplBatchApply) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	a := e.Op.(*algebra.BatchApply)
	return []*Candidate{{
		Op: &algebra.BatchLoopJoin{
			Type:      a.Type,
			On:        a.Residual,
			Pairs:     a.Pairs,
			ParamBase: a.ParamBase,
			BatchSize: a.BatchSize,
		},
		Kids: []Kid{GroupKid(e.Kids[0], memo.Any), GroupKid(e.Kids[1], memo.Any)},
	}}
}

// ImplSelect implements Select as a Filter, as an index range (local
// IndexRange or RemoteRange, §4.1.2 "build remote scan/range/fetch"), or as
// a full-text fetch plan (Figure 2). It also introduces startup filters for
// parameterized predicates over CHECK-constrained members (§4.1.5).
type ImplSelect struct{}

// Name implements ImplementationRule.
func (*ImplSelect) Name() string { return "ImplementSelect" }

// MinPhase implements ImplementationRule.
func (*ImplSelect) MinPhase() Phase { return PhaseTP }

// Candidates implements ImplementationRule.
func (r *ImplSelect) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	sel := e.Op.(*algebra.Select)
	childGroup := ctx.Memo.Group(e.Kids[0])
	var out []*Candidate

	// Filters over a UNION ALL implement only through the pushed-down
	// alternative (PushSelectIntoUnionAll runs in every phase): keeping the
	// filter above the union defeats both static and runtime partition
	// pruning (§4.1.5), and SQL Server performs this rewrite heuristically
	// in the Simplification phase.
	childIsUnion := false
	for _, kid := range childGroup.Exprs {
		if _, ok := kid.Op.(*algebra.UnionAll); ok {
			childIsUnion = true
			break
		}
	}
	if !childIsUnion {
		out = append(out, &Candidate{
			Op:               &algebra.Filter{Pred: sel.Filter},
			Kids:             []Kid{GroupKid(e.Kids[0], memo.Any)},
			PassOrderThrough: true,
		})
	}

	// Access-path candidates need the child to be a direct Get.
	var get *algebra.Get
	for _, kid := range childGroup.Exprs {
		if g, ok := kid.Op.(*algebra.Get); ok {
			get = g
			break
		}
	}
	if get != nil {
		out = append(out, r.indexCandidates(sel, get, e, ctx)...)
		out = append(out, r.fulltextCandidates(sel, get, e, ctx)...)
	}

	// Startup filter wrapping: for conjuncts "col op @param" where the
	// child's CHECK-derived domain restricts col, prepend
	// STARTUP(some value of the domain satisfies col op @param).
	if sp := startupPredicate(sel.Filter, childGroup.Props.Domains); sp != nil {
		wrapped := make([]*Candidate, 0, len(out))
		for _, c := range out {
			wrapped = append(wrapped, &Candidate{
				Op:          &algebra.StartupFilter{Pred: sp},
				Kids:        []Kid{FixedKid(c)},
				Provides:    c.Provides,
				StartupProb: 0.5,
			})
		}
		out = wrapped
	}
	return out
}

// startupPredicate derives the runtime pruning predicate from the
// conjuncts that compare a domain-restricted column to a parameter with
// = < <= > >= (either operand order; the binder splits BETWEEN into two of
// them): each contributes "some value of the column's domain satisfies
// it", and the contributions are ANDed. The result is a necessary
// condition for the subtree to return a row, never a sufficient one —
// @lo > @hi, or two conjuncts met by different intervals, still open it.
func startupPredicate(pred expr.Expr, domains constraint.Map) expr.Expr {
	var parts []expr.Expr
	for _, c := range expr.SplitConjuncts(pred) {
		col, op, val, ok := expr.SingleColumnComparison(c)
		if !ok {
			continue
		}
		p, isParam := val.(*expr.Param)
		if !isParam {
			continue
		}
		if d, has := domains[col.ID]; has {
			parts = append(parts, constraint.StartupPredicate(d, op, p))
		}
	}
	return expr.Conjoin(parts)
}

// indexCandidates builds IndexRange/RemoteRange plans from sargable
// conjuncts on a leading index column. The remote variant requires the
// provider to support index interfaces (§3.3 "index provider").
func (*ImplSelect) indexCandidates(sel *algebra.Select, get *algebra.Get, e *memo.GroupExpr, ctx *Context) []*Candidate {
	if get.Src.Def == nil || len(get.Src.Def.Indexes) == 0 {
		return nil
	}
	if get.Src.IsRemote() {
		caps, ok := ctx.CapsFor(get.Src.Server)
		if !ok || !caps.SupportsIndexes {
			return nil
		}
	}
	conjuncts := expr.SplitConjuncts(sel.Filter)
	// Index metadata holds table ordinals; the scan's columns may be a
	// pruned (non-prefix) subset, so resolve each key column by name.
	scanCol := func(ord int) (algebra.OutCol, bool) {
		if ord < 0 || ord >= len(get.Src.Def.Columns) {
			return algebra.OutCol{}, false
		}
		name := get.Src.Def.Columns[ord].Name
		for _, c := range get.Cols {
			if c.Name == name {
				return c, true
			}
		}
		return algebra.OutCol{}, false
	}
	var out []*Candidate
	for _, ix := range get.Src.Def.Indexes {
		leadCol, ok := scanCol(ix.Columns[0])
		if !ok {
			continue
		}
		lo, hi, used := indexBounds(conjuncts, func(c *expr.ColRef) bool { return c.ID == leadCol.ID })
		if lo.Vals == nil && hi.Vals == nil {
			continue
		}
		var residual []expr.Expr
		for ci, c := range conjuncts {
			if !used[ci] {
				residual = append(residual, c)
			}
		}
		// Index delivers order on its key columns; the order is only
		// claimable down to the first key column the scan does not output.
		order := algebra.Ordering{}
		for _, ord := range ix.Columns {
			c, ok := scanCol(ord)
			if !ok {
				break
			}
			order = append(order, algebra.OrderCol{Col: c.ID})
		}
		// Cardinality estimate: apply the used conjuncts' selectivity to
		// the table estimate.
		tableCard := ctx.Memo.Group(e.Kids[0]).Props.Cardinality
		est := ctx.Memo.Estimator()
		usedSel := 1.0
		for ci := range used {
			usedSel *= selectivityOfConjunct(est, conjuncts[ci])
		}
		rangeCard := tableCard * usedSel
		var leaf *Candidate
		if get.Src.IsRemote() {
			leaf = &Candidate{
				Op: &algebra.RemoteRange{
					Src: get.Src, Index: ix.Name, Lo: lo, Hi: hi,
					Cols: get.Cols, Order: order,
				},
				Provides: order,
				Card:     rangeCard,
			}
		} else {
			leaf = &Candidate{
				Op: &algebra.IndexRange{
					Src: get.Src, Index: ix.Name, Lo: lo, Hi: hi,
					Cols: get.Cols, Order: order,
				},
				Provides: order,
				Card:     rangeCard,
			}
		}
		if len(residual) > 0 {
			out = append(out, &Candidate{
				Op:       &algebra.Filter{Pred: expr.Conjoin(residual)},
				Kids:     []Kid{FixedKid(leaf)},
				Provides: order,
			})
		} else {
			out = append(out, leaf)
		}
	}
	return out
}

func selectivityOfConjunct(est *stats.Estimator, c expr.Expr) float64 {
	if est == nil {
		return stats.DefaultRangeSelectivity
	}
	return est.Selectivity(c)
}

// indexBounds is the conjunct→index-bounds matcher of every access path,
// SELECT's and a write's qualifying rows alike. It matches the conjuncts of
// the form lead op value — lead being an index's leading column, op one of
// = < <= > >=, value a constant or a parameter — to a key range on that
// index and reports which conjuncts the range stands for. An equality fixes
// both ends and wins over inequalities; otherwise the first conjunct on each
// side bounds it.
func indexBounds(conjuncts []expr.Expr, isLead func(*expr.ColRef) bool) (lo, hi algebra.RangeBound, used map[int]bool) {
	used = map[int]bool{}
	for ci, c := range conjuncts {
		col, op, val, ok := expr.SingleColumnComparison(c)
		if !ok || !isLead(col) {
			continue
		}
		switch val.(type) {
		case *expr.Const, *expr.Param:
		default:
			continue
		}
		switch op {
		case expr.OpEq:
			lo = algebra.RangeBound{Vals: []expr.Expr{val}, Inclusive: true}
			hi = algebra.RangeBound{Vals: []expr.Expr{val}, Inclusive: true}
			return lo, hi, map[int]bool{ci: true}
		case expr.OpGt, expr.OpGe:
			if lo.Vals == nil {
				lo = algebra.RangeBound{Vals: []expr.Expr{val}, Inclusive: op == expr.OpGe}
				used[ci] = true
			}
		case expr.OpLt, expr.OpLe:
			if hi.Vals == nil {
				hi = algebra.RangeBound{Vals: []expr.Expr{val}, Inclusive: op == expr.OpLe}
				used[ci] = true
			}
		}
	}
	return lo, hi, used
}

// fulltextCandidates rewrites a CONTAINS conjunct over an indexed column
// into the Figure 2 plan: the search service returns a (KEY, RANK) rowset;
// RemoteFetch joins it back to the base table on row identity; remaining
// predicates filter above. A Get that outputs the bookmark column (a
// write's qualifying rows) keeps its scan: the fetch returns base columns
// only, after KEY and RANK.
func (*ImplSelect) fulltextCandidates(sel *algebra.Select, get *algebra.Get, e *memo.GroupExpr, ctx *Context) []*Candidate {
	if ctx.FulltextIndex == nil || get.Src.Kind != algebra.SourceBaseTable {
		return nil
	}
	conjuncts := expr.SplitConjuncts(sel.Filter)
	for ci, c := range conjuncts {
		ct, ok := c.(*expr.Contains)
		if !ok {
			continue
		}
		colRef, ok := ct.Col.(*expr.ColRef)
		if !ok {
			continue
		}
		info, ok := ctx.FulltextIndex(get.Src, colRef.Name)
		if !ok || slices.ContainsFunc(get.Cols, func(c algebra.OutCol) bool { return c.Name == algebra.Bookmark }) {
			continue
		}
		keyCol := algebra.OutCol{ID: ctx.NewCol(), Name: "KEY", Kind: sqltypes.KindInt}
		rankCol := algebra.OutCol{ID: ctx.NewCol(), Name: "RANK", Kind: sqltypes.KindFloat}
		search := &Candidate{
			Op: &algebra.ProviderCommand{
				Src: &algebra.Source{
					Kind:   algebra.SourceFullText,
					Server: info.Server,
					Table:  info.Catalog,
					Query:  "CONTAINSTABLE " + info.Catalog + " :: " + ct.Query,
				},
				Cols: []algebra.OutCol{keyCol, rankCol},
			},
			Card:  ctx.Memo.Group(e.Kids[0]).Props.Cardinality * stats.DefaultLikeSelectivity,
			Width: 16,
		}
		fetch := &Candidate{
			Op: &algebra.RemoteFetch{
				Src:    get.Src,
				KeyCol: keyCol.ID,
				Cols:   get.Cols,
			},
			Kids: []Kid{FixedKid(search)},
		}
		var residual []expr.Expr
		for cj, other := range conjuncts {
			if cj != ci {
				residual = append(residual, other)
			}
		}
		plan := fetch
		if f := expr.Conjoin(residual); f != nil {
			plan = &Candidate{
				Op:   &algebra.Filter{Pred: f},
				Kids: []Kid{FixedKid(fetch)},
			}
		}
		return []*Candidate{plan}
	}
	return nil
}

// BuildRemoteQuery is the flagship remote implementation rule (§4.1.2):
// when a group's subtree touches exactly one query-capable linked server,
// decode a remotable logical tree from the group into the provider's SQL
// dialect and push the whole statement. Per §4.1.4, when an alternative is
// not remotable (abstract operators, dialect limits), the framework picks
// any remotable tree from the same group — equivalence guarantees the same
// results.
type BuildRemoteQuery struct{}

// Name implements ImplementationRule.
func (*BuildRemoteQuery) Name() string { return "BuildRemoteQuery" }

// MinPhase implements ImplementationRule.
func (*BuildRemoteQuery) MinPhase() Phase { return PhaseQuick }

// Candidates implements ImplementationRule.
func (*BuildRemoteQuery) Candidates(e *memo.GroupExpr, ctx *Context) []*Candidate {
	grp := ctx.Memo.Group(e.Group)
	// Fire once per group, not once per alternative.
	if len(grp.Exprs) == 0 || grp.Exprs[0] != e {
		return nil
	}
	server, ok := grp.Props.SoleServer()
	if !ok {
		return nil
	}
	caps, ok := ctx.CapsFor(server)
	if !ok || !caps.SupportsCommand || caps.SQLSupport == oledb.SQLNone || caps.SQLSupport == oledb.SQLProprietary {
		return nil
	}
	// Extract a remotable logical tree from the Memo group, preferring
	// base-relational operators the decoder understands.
	tree := ctx.Memo.ExtractLogical(e.Group, func(ge *memo.GroupExpr) bool {
		switch ge.Op.(type) {
		case *algebra.Get, *algebra.Select, *algebra.Project, *algebra.Join, *algebra.GroupBy, *algebra.Top:
			return true
		default:
			return false
		}
	})
	if tree == nil {
		return nil
	}
	params, err := decoder.Check(tree, caps)
	if err != nil {
		// Not remotable in this dialect; no candidate.
		return nil
	}
	// A PARAMETERIZED remote join — a pushed statement that both joins
	// tables and references parameters — is deferred to the full phase. It
	// compounds two speculative choices (parameterize, collapse the join)
	// whose real competitors are the full phase's join reorderings (Figure
	// 4's plan b: ship both tables, reorder, join locally); offering it
	// earlier lets a mediocre plan win by quick-phase early exit against an
	// artificially thin field. Unparameterized join collapse and
	// parameterized single-table pushes stay available from the quick phase.
	work, joins := remoteWork(ctx, tree)
	if ctx.Phase < PhaseFull && len(params) > 0 && joins {
		return nil
	}
	rq := &Candidate{
		Op:         &algebra.RemoteQuery{Server: server, Cols: grp.Props.OutCols},
		RemoteWork: work,
		Pushed:     tree,
		Caps:       caps,
	}
	// Startup-filter wrapping applies to pushed statements exactly as it
	// does to local access paths (§4.1.5): when the group's predicate
	// compares a CHECK-constrained column to a parameter, the remote call
	// is skipped entirely for out-of-domain parameter values.
	for _, ge := range grp.Exprs {
		sel, ok := ge.Op.(*algebra.Select)
		if !ok {
			continue
		}
		childDomains := ctx.Memo.Group(ge.Kids[0]).Props.Domains
		if sp := startupPredicate(sel.Filter, childDomains); sp != nil {
			return []*Candidate{{
				Op:          &algebra.StartupFilter{Pred: sp},
				Kids:        []Kid{FixedKid(rq)},
				StartupProb: 0.5,
			}}
		}
		break
	}
	return []*Candidate{rq}
}

// remoteWork sums the base-table cardinalities the remote server must
// touch to run the pushed tree, and reports whether the tree joins.
func remoteWork(ctx *Context, n *algebra.Node) (work float64, joins bool) {
	switch op := n.Op.(type) {
	case *algebra.Get:
		work = ctx.TableCard(op.Src)
	case *algebra.Join:
		joins = true
	}
	for _, k := range n.Kids {
		w, j := remoteWork(ctx, k)
		work, joins = work+w, joins || j
	}
	return work, joins
}

// TableCard exposes table cardinality to rules; wired by the optimizer.
func (ctx *Context) TableCard(src *algebra.Source) float64 {
	if ctx.TableCardFn == nil {
		return 1000
	}
	return ctx.TableCardFn(src)
}
