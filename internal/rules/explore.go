package rules

import (
	"fmt"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/memo"
	"dhqp/internal/oledb"
)

// SelectMerge collapses stacked selections: Select(Select(x, p1), p2) ≡
// Select(x, p1 AND p2) — the paper's "splitting/merging predicates"
// machinery in its merge direction.
type SelectMerge struct{}

// Name implements ExplorationRule.
func (*SelectMerge) Name() string { return "SelectMerge" }

// Promise implements ExplorationRule.
func (*SelectMerge) Promise() int { return 90 }

// MinPhase implements ExplorationRule.
func (*SelectMerge) MinPhase() Phase { return PhaseTP }

// Apply implements ExplorationRule.
func (*SelectMerge) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	sel := e.Op.(*algebra.Select)
	var out []*memo.XNode
	for _, kid := range ctx.Memo.Group(e.Kids[0]).Exprs {
		inner, ok := kid.Op.(*algebra.Select)
		if !ok {
			continue
		}
		merged := expr.Conjoin([]expr.Expr{inner.Filter, sel.Filter})
		out = append(out, &memo.XNode{
			Op:   &algebra.Select{Filter: merged},
			Kids: []memo.XChild{memo.GroupChild(kid.Kids[0])},
		})
	}
	return out
}

// PushSelectIntoJoin pushes filter conjuncts toward the leaves — the
// canonical high-promise rule (§4.1.1: "pushing filters towards the leaves
// of a query tree have a high promise"). Conjuncts covered by one join
// input move below the join; cross-input conjuncts merge into the join
// condition.
type PushSelectIntoJoin struct{}

// Name implements ExplorationRule.
func (*PushSelectIntoJoin) Name() string { return "PushSelectIntoJoin" }

// Promise implements ExplorationRule.
func (*PushSelectIntoJoin) Promise() int { return 100 }

// MinPhase implements ExplorationRule.
func (*PushSelectIntoJoin) MinPhase() Phase { return PhaseTP }

// Apply implements ExplorationRule.
func (*PushSelectIntoJoin) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	sel := e.Op.(*algebra.Select)
	var out []*memo.XNode
	for _, kid := range ctx.Memo.Group(e.Kids[0]).Exprs {
		j, ok := kid.Op.(*algebra.Join)
		if !ok {
			continue
		}
		leftCols := algebra.ColSetOf(ctx.Memo.Group(kid.Kids[0]).Props.OutCols)
		rightCols := algebra.ColSetOf(ctx.Memo.Group(kid.Kids[1]).Props.OutCols)
		var toLeft, toRight, toOn, keep []expr.Expr
		for _, c := range expr.SplitConjuncts(sel.Filter) {
			cols := expr.Cols(c)
			switch {
			case cols.SubsetOf(leftCols):
				toLeft = append(toLeft, c)
			case cols.SubsetOf(rightCols):
				// Below a left outer join, right-side filters change
				// semantics (they would defeat null-extension).
				if j.Type == algebra.LeftOuterJoin {
					keep = append(keep, c)
				} else {
					toRight = append(toRight, c)
				}
			default:
				if j.Type == algebra.InnerJoin || j.Type == algebra.SemiJoin || j.Type == algebra.AntiJoin {
					toOn = append(toOn, c)
				} else {
					keep = append(keep, c)
				}
			}
		}
		if len(toLeft) == 0 && len(toRight) == 0 && len(toOn) == 0 {
			continue
		}
		left := memo.GroupChild(kid.Kids[0])
		if f := expr.Conjoin(toLeft); f != nil {
			left = memo.NodeChild(&memo.XNode{
				Op:   &algebra.Select{Filter: f},
				Kids: []memo.XChild{memo.GroupChild(kid.Kids[0])},
			})
		}
		right := memo.GroupChild(kid.Kids[1])
		if f := expr.Conjoin(toRight); f != nil {
			right = memo.NodeChild(&memo.XNode{
				Op:   &algebra.Select{Filter: f},
				Kids: []memo.XChild{memo.GroupChild(kid.Kids[1])},
			})
		}
		newOn := expr.Conjoin(append([]expr.Expr{j.On}, toOn...))
		joinNode := &memo.XNode{
			Op:   &algebra.Join{Type: j.Type, On: newOn},
			Kids: []memo.XChild{left, right},
		}
		if f := expr.Conjoin(keep); f != nil {
			out = append(out, &memo.XNode{
				Op:   &algebra.Select{Filter: f},
				Kids: []memo.XChild{memo.NodeChild(joinNode)},
			})
		} else {
			out = append(out, joinNode)
		}
	}
	return out
}

// PushSelectIntoUnionAll pushes a filter into every arm of a UNION ALL —
// the rule that makes partitioned-view pruning possible (§4.1.5): once the
// filter reaches a member whose CHECK domain contradicts it, the member's
// group derives Unsatisfiable and static pruning removes it.
type PushSelectIntoUnionAll struct{}

// Name implements ExplorationRule.
func (*PushSelectIntoUnionAll) Name() string { return "PushSelectIntoUnionAll" }

// Promise implements ExplorationRule.
func (*PushSelectIntoUnionAll) Promise() int { return 95 }

// MinPhase implements ExplorationRule.
func (*PushSelectIntoUnionAll) MinPhase() Phase { return PhaseTP }

// Apply implements ExplorationRule.
func (*PushSelectIntoUnionAll) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	sel := e.Op.(*algebra.Select)
	read := expr.Cols(sel.Filter)
	var out []*memo.XNode
	for _, kid := range ctx.Memo.Group(e.Kids[0]).Exprs {
		u, ok := kid.Op.(*algebra.UnionAll)
		if !ok {
			continue
		}
		kids := make([]memo.XChild, len(kid.Kids))
		for i, armGroup := range kid.Kids {
			// Rewrite the filter in terms of the arm's own columns.
			subst := map[expr.ColumnID]expr.Expr{}
			for j, oc := range u.OutColsList {
				if read.Has(oc.ID) {
					subst[oc.ID] = expr.NewColRef(u.InMaps[i][j], oc.Name)
				}
			}
			armFilter := expr.Substitute(sel.Filter, subst)
			kids[i] = memo.NodeChild(&memo.XNode{
				Op:   &algebra.Select{Filter: armFilter},
				Kids: []memo.XChild{memo.GroupChild(armGroup)},
			})
		}
		out = append(out, &memo.XNode{
			Op:   &algebra.UnionAll{OutColsList: u.OutColsList, InMaps: u.InMaps},
			Kids: kids,
		})
	}
	return out
}

// PruneEmptyUnionArms removes arms proven empty by the constraint
// framework — the paper's static pruning (§4.1.5): "we can reduce the
// operator to a logical empty table operator".
type PruneEmptyUnionArms struct{}

// Name implements ExplorationRule.
func (*PruneEmptyUnionArms) Name() string { return "PruneEmptyUnionArms" }

// Promise implements ExplorationRule.
func (*PruneEmptyUnionArms) Promise() int { return 85 }

// MinPhase implements ExplorationRule.
func (*PruneEmptyUnionArms) MinPhase() Phase { return PhaseTP }

// Apply implements ExplorationRule.
func (*PruneEmptyUnionArms) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	u := e.Op.(*algebra.UnionAll)
	var kids []memo.XChild
	var inMaps [][]expr.ColumnID
	pruned := false
	for i, armGroup := range e.Kids {
		if ctx.Memo.Group(armGroup).Props.Unsatisfiable {
			pruned = true
			continue
		}
		kids = append(kids, memo.GroupChild(armGroup))
		inMaps = append(inMaps, u.InMaps[i])
	}
	if !pruned {
		return nil
	}
	if len(kids) == 0 {
		return []*memo.XNode{{
			Op: &algebra.Values{Cols: u.OutColsList},
		}}
	}
	if len(kids) == len(e.Kids) {
		return nil
	}
	return []*memo.XNode{{
		Op:   &algebra.UnionAll{OutColsList: u.OutColsList, InMaps: inMaps},
		Kids: kids,
	}}
}

// JoinCommute: A JOIN B ≡ B JOIN A (§4.1.1's example exploration rule).
// Thanks to the Memo, it fires for "Filter(Get(A)) Join Filter(Get(B))"
// with the same rule as for "Get(A) Join Get(B)".
type JoinCommute struct{}

// Name implements ExplorationRule.
func (*JoinCommute) Name() string { return "JoinCommute" }

// Promise implements ExplorationRule.
func (*JoinCommute) Promise() int { return 50 }

// MinPhase implements ExplorationRule.
func (*JoinCommute) MinPhase() Phase { return PhaseQuick }

// Apply implements ExplorationRule.
func (*JoinCommute) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	j := e.Op.(*algebra.Join)
	if j.Type != algebra.InnerJoin {
		return nil
	}
	return []*memo.XNode{{
		Op:   &algebra.Join{Type: algebra.InnerJoin, On: j.On},
		Kids: []memo.XChild{memo.GroupChild(e.Kids[1]), memo.GroupChild(e.Kids[0])},
	}}
}

// JoinAssociate: (A ⋈ B) ⋈ C ≡ A ⋈ (B ⋈ C), redistributing predicates to
// the lowest join where their columns are available.
type JoinAssociate struct{}

// Name implements ExplorationRule.
func (*JoinAssociate) Name() string { return "JoinAssociate" }

// Promise implements ExplorationRule.
func (*JoinAssociate) Promise() int { return 40 }

// MinPhase implements ExplorationRule.
func (*JoinAssociate) MinPhase() Phase { return PhaseFull }

// Apply implements ExplorationRule.
func (*JoinAssociate) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	j := e.Op.(*algebra.Join)
	if j.Type != algebra.InnerJoin {
		return nil
	}
	var out []*memo.XNode
	for _, kid := range ctx.Memo.Group(e.Kids[0]).Exprs {
		inner, ok := kid.Op.(*algebra.Join)
		if !ok || inner.Type != algebra.InnerJoin {
			continue
		}
		a, b, c := kid.Kids[0], kid.Kids[1], e.Kids[1]
		x := rebuildJoinTree(ctx, a, b, c,
			append(expr.SplitConjuncts(inner.On), expr.SplitConjuncts(j.On)...),
			false /* lower = (b, c) */)
		if x != nil {
			out = append(out, x)
		}
	}
	return out
}

// rebuildJoinTree constructs outer(a, lower(b, c)) with each predicate
// placed at the lowest join covering its columns.
func rebuildJoinTree(ctx *Context, a, b, c memo.GroupID, conjuncts []expr.Expr, swapOuter bool) *memo.XNode {
	aCols := algebra.ColSetOf(ctx.Memo.Group(a).Props.OutCols)
	bCols := algebra.ColSetOf(ctx.Memo.Group(b).Props.OutCols)
	cCols := algebra.ColSetOf(ctx.Memo.Group(c).Props.OutCols)
	bc := bCols.Union(cCols)
	var lowerOn, upperOn []expr.Expr
	for _, cj := range conjuncts {
		if cj == nil {
			continue
		}
		cols := expr.Cols(cj)
		if cols.SubsetOf(bc) {
			lowerOn = append(lowerOn, cj)
		} else {
			upperOn = append(upperOn, cj)
		}
	}
	_ = aCols
	lower := &memo.XNode{
		Op:   &algebra.Join{Type: algebra.InnerJoin, On: expr.Conjoin(lowerOn)},
		Kids: []memo.XChild{memo.GroupChild(b), memo.GroupChild(c)},
	}
	kids := []memo.XChild{memo.GroupChild(a), memo.NodeChild(lower)}
	if swapOuter {
		kids[0], kids[1] = kids[1], kids[0]
	}
	return &memo.XNode{
		Op:   &algebra.Join{Type: algebra.InnerJoin, On: expr.Conjoin(upperOn)},
		Kids: kids,
	}
}

// GroupJoinsByLocality reorders joins into groups based on the locality of
// the operand tables (§4.1.2): "(A_remote ⋈ B_local) ⋈ C_remote" becomes
// "(A_remote ⋈ C_remote) ⋈ B_local" so the largest possible subtree can be
// pushed to the remote source by build-remote-query.
type GroupJoinsByLocality struct{}

// Name implements ExplorationRule.
func (*GroupJoinsByLocality) Name() string { return "GroupJoinsByLocality" }

// Promise implements ExplorationRule.
func (*GroupJoinsByLocality) Promise() int { return 60 }

// MinPhase implements ExplorationRule.
func (*GroupJoinsByLocality) MinPhase() Phase { return PhaseFull }

// Apply implements ExplorationRule.
func (*GroupJoinsByLocality) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	j := e.Op.(*algebra.Join)
	if j.Type != algebra.InnerJoin {
		return nil
	}
	serverOf := func(g memo.GroupID) (string, bool) {
		return ctx.Memo.Group(g).Props.SoleServer()
	}
	cSrv, cRemote := serverOf(e.Kids[1])
	var out []*memo.XNode
	for _, kid := range ctx.Memo.Group(e.Kids[0]).Exprs {
		inner, ok := kid.Op.(*algebra.Join)
		if !ok || inner.Type != algebra.InnerJoin {
			continue
		}
		a, b := kid.Kids[0], kid.Kids[1]
		aSrv, aRemote := serverOf(a)
		bSrv, bRemote := serverOf(b)
		conjuncts := append(expr.SplitConjuncts(inner.On), expr.SplitConjuncts(j.On)...)
		// (A_r ⋈ B_x) ⋈ C_r with A,C on one server and B elsewhere:
		// regroup as (A ⋈ C) ⋈ B.
		if cRemote && aRemote && aSrv == cSrv && (!bRemote || bSrv != aSrv) {
			if x := rebuildJoinTree(ctx, b, a, e.Kids[1], conjuncts, true); x != nil {
				out = append(out, x)
			}
		}
		if cRemote && bRemote && bSrv == cSrv && (!aRemote || aSrv != bSrv) {
			if x := rebuildJoinTree(ctx, a, b, e.Kids[1], conjuncts, false); x != nil {
				out = append(out, x)
			}
		}
	}
	return out
}

// ParameterizeJoin turns an equi-join into a correlated Apply whose inner
// side selects on parameters bound from the outer row (§4.1.2:
// "parameterization enables pushing parameters into the remote sources and
// opens up a large variety of alternative plans"). The inner side then
// implements as a parameterized remote query, remote range or local index
// range.
type ParameterizeJoin struct{}

// Name implements ExplorationRule.
func (*ParameterizeJoin) Name() string { return "ParameterizeJoin" }

// Promise implements ExplorationRule.
func (*ParameterizeJoin) Promise() int { return 45 }

// MinPhase implements ExplorationRule.
func (*ParameterizeJoin) MinPhase() Phase { return PhaseQuick }

// Apply implements ExplorationRule.
func (*ParameterizeJoin) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	if ctx.DisableParameterization {
		return nil
	}
	j := e.Op.(*algebra.Join)
	if j.Type != algebra.InnerJoin && j.Type != algebra.SemiJoin {
		return nil
	}
	leftCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[0]).Props.OutCols)
	rightCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[1]).Props.OutCols)
	pairs, residual := expr.ExtractEquiJoin(j.On, leftCols, rightCols)
	if len(pairs) == 0 {
		return nil
	}
	// Build the inner predicate right.col = @p<i> per pair.
	paramMap := map[string]expr.ColumnID{}
	var innerPred []expr.Expr
	for i, pr := range pairs {
		name := fmt.Sprintf("p%d_%d", e.Group, i)
		paramMap[name] = pr.Left
		rname := colName(ctx, e.Kids[1], pr.Right)
		innerPred = append(innerPred, expr.NewBinary(expr.OpEq,
			expr.NewColRef(pr.Right, rname), expr.NewParam(name)))
	}
	inner := &memo.XNode{
		Op:   &algebra.Select{Filter: expr.Conjoin(innerPred)},
		Kids: []memo.XChild{memo.GroupChild(e.Kids[1])},
	}
	if debugParam {
		fmt.Printf("ParameterizeJoin fired on group %d: %d pairs\n", e.Group, len(pairs))
	}
	return []*memo.XNode{{
		Op:   &algebra.Apply{Type: j.Type, ParamMap: paramMap, Residual: residual},
		Kids: []memo.XChild{memo.GroupChild(e.Kids[0]), memo.NodeChild(inner)},
	}}
}

// BatchParameterizeJoin is the batched refinement of ParameterizeJoin: when
// the inner side lives entirely on one remote server whose dialect accepts
// IN lists, up to K outer-row key values ship together as
// "right.col IN (@b0, …, @bK-1)" in a single remote call, amortizing the
// per-call link latency that the serial Apply pays once per outer row
// (§4.1.2–4.1.3: the cost model exists to minimize network traffic). The
// IN-list is only a prefilter — the BatchLoopJoin executor re-matches
// returned rows to buffered outer rows locally — so all four join types
// keep their serial semantics and the rule covers left-outer and anti joins
// that serial parameterization cannot.
type BatchParameterizeJoin struct{}

// Name implements ExplorationRule.
func (*BatchParameterizeJoin) Name() string { return "BatchParameterizeJoin" }

// Promise implements ExplorationRule.
func (*BatchParameterizeJoin) Promise() int { return 44 }

// MinPhase implements ExplorationRule.
func (*BatchParameterizeJoin) MinPhase() Phase { return PhaseQuick }

// Apply implements ExplorationRule.
func (*BatchParameterizeJoin) Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode {
	if ctx.DisableParameterization || ctx.RemoteBatchSize < 2 {
		return nil
	}
	j := e.Op.(*algebra.Join)
	// The inner side must sit wholly on one remote server that can execute
	// commands with parameters and render IN lists; otherwise the decoder
	// would refuse the batch predicate and the alternative is dead weight.
	server, remote := ctx.Memo.Group(e.Kids[1]).Props.SoleServer()
	if !remote {
		return nil
	}
	caps, ok := ctx.CapsFor(server)
	if !ok || !caps.SupportsCommand ||
		caps.SQLSupport == oledb.SQLNone || caps.SQLSupport == oledb.SQLProprietary ||
		!caps.Profile.InList || !caps.Profile.Params {
		return nil
	}
	leftCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[0]).Props.OutCols)
	rightCols := algebra.ColSetOf(ctx.Memo.Group(e.Kids[1]).Props.OutCols)
	pairs, residual := expr.ExtractEquiJoin(j.On, leftCols, rightCols)
	if len(pairs) == 0 {
		return nil
	}
	// Per pair: right.col IN (@base_pair_0, …, @base_pair_K-1). With
	// multi-column keys the conjunction of per-column IN lists is a
	// superset (cross product) of the batch's keys; exact matching happens
	// in the executor's hash table over the full key.
	k := ctx.RemoteBatchSize
	base := fmt.Sprintf("b%d", e.Group)
	var innerPred []expr.Expr
	for pi, pr := range pairs {
		rname := colName(ctx, e.Kids[1], pr.Right)
		list := make([]expr.Expr, k)
		for s := 0; s < k; s++ {
			list[s] = expr.NewParam(fmt.Sprintf("%s_%d_%d", base, pi, s))
		}
		innerPred = append(innerPred, &expr.InList{
			E:    expr.NewColRef(pr.Right, rname),
			List: list,
		})
	}
	inner := &memo.XNode{
		Op:   &algebra.Select{Filter: expr.Conjoin(innerPred)},
		Kids: []memo.XChild{memo.GroupChild(e.Kids[1])},
	}
	return []*memo.XNode{{
		Op: &algebra.BatchApply{
			Type:      j.Type,
			Pairs:     pairs,
			ParamBase: base,
			BatchSize: k,
			Residual:  residual,
		},
		Kids: []memo.XChild{memo.GroupChild(e.Kids[0]), memo.NodeChild(inner)},
	}}
}

var debugParam = false

func colName(ctx *Context, g memo.GroupID, id expr.ColumnID) string {
	for _, c := range ctx.Memo.Group(g).Props.OutCols {
		if c.ID == id {
			return c.Name
		}
	}
	return ""
}
