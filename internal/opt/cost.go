package opt

import (
	"fmt"

	"dhqp/internal/algebra"
	"dhqp/internal/cost"
	"dhqp/internal/expr"
	"dhqp/internal/memo"
	"dhqp/internal/rules"
)

// costCandidate resolves a candidate's children (group winners or fixed
// subtrees), verifies ordering requirements, and computes cumulative cost.
// It returns nil when the candidate cannot satisfy the required properties
// (the sort enforcer covers those groups). A fixed subtree is costed under
// no requirement, its cardinality defaulting to its first child's (spools,
// fetch wrappers) rather than the owning group's.
func (o *Optimizer) costCandidate(c *rules.Candidate, grp *memo.Group, required memo.PhysProps, fixed bool) (*planned, error) {
	provides := c.Provides
	if len(required.Order) > 0 && !c.PassOrderThrough && !required.Order.SatisfiedBy(provides) {
		return nil, nil
	}

	kids := make([]*planned, len(c.Kids))
	for i, kid := range c.Kids {
		if kid.Fixed != nil {
			kp, err := o.costCandidate(kid.Fixed, grp, memo.Any, true)
			if kp == nil || err != nil {
				return nil, err
			}
			kids[i] = kp
			continue
		}
		req := kid.Required
		if c.PassOrderThrough && len(required.Order) > 0 {
			// Order-preserving unary op: push the requirement down if the
			// ordering columns exist below; otherwise the enforcer sorts
			// above.
			if !orderCovered(required.Order, o.memo.Group(kid.Group).Props.OutCols) {
				return nil, nil
			}
			req = required
		}
		w, err := o.optimizeGroup(kid.Group, req)
		if err != nil {
			return nil, err
		}
		kids[i] = w.Plan.(*planned)
	}
	if c.PassOrderThrough && len(required.Order) > 0 {
		provides = required.Order
	}
	card, width := grp.Props.Cardinality, grp.Props.RowWidth
	if fixed && len(kids) > 0 {
		card = kids[0].card
	}
	if c.Card > 0 {
		card = c.Card
	}
	if c.Width > 0 {
		width = c.Width
	}

	p := &planned{op: c.Op, kids: kids, provides: provides, card: card, width: width, from: c, remote: algebra.IsRemoteOp(c.Op)}
	for _, k := range kids {
		p.remote = p.remote || k.remote
	}
	if err := o.finishCost(p, c, grp); err != nil {
		return nil, err
	}
	return p, nil
}

// orderCovered reports whether every ordering column exists in cols.
func orderCovered(order algebra.Ordering, cols []algebra.OutCol) bool {
	set := algebra.ColSetOf(cols)
	for _, oc := range order {
		if !set.Has(oc.Col) {
			return false
		}
	}
	return true
}

// finishCost computes self + cumulative + rescan costs for a planned node.
func (o *Optimizer) finishCost(p *planned, c *rules.Candidate, grp *memo.Group) error {
	m := o.model
	kidCost := 0.0
	for _, k := range p.kids {
		kidCost += k.cost
	}
	childCard := func(i int) float64 {
		if i < len(p.kids) {
			return p.kids[i].card
		}
		return 0
	}

	var self float64
	total := -1.0  // when >= 0, overrides kidCost+self
	rescan := -1.0 // when >= 0, overrides default full-cost rescan

	switch op := p.op.(type) {
	case *algebra.TableScan:
		self = m.Scan(p.card)
	case *algebra.IndexRange:
		self = m.IndexRange(p.card)
	case *algebra.RemoteScan:
		self = m.RemoteScan(op.Src.Server, p.card, p.width)
	case *algebra.RemoteRange:
		self = m.RemoteRange(op.Src.Server, p.card, p.width)
	case *algebra.RemoteQuery:
		self = m.RemoteQuery(op.Server, c.RemoteWork, p.card, p.width)
	case *algebra.ProviderCommand:
		self = m.RemoteQuery(op.Src.Server, p.card*2, p.card, p.width)
	case *algebra.RemoteFetch:
		self = m.RemoteFetch(op.Src.Server, childCard(0), p.width)
	case *algebra.Filter:
		self = m.Filter(childCard(0))
		if predContains(op.Pred) {
			self = childCard(0) * cost.ContainsRowCost
		}
		rescan = rescanOf(p.kids) + self
	case *algebra.StartupFilter:
		self = 0
		rescan = rescanOf(p.kids)
	case *algebra.Compute:
		self = m.Compute(childCard(0))
		rescan = rescanOf(p.kids) + self
	case *algebra.HashJoin:
		self = m.HashJoin(childCard(0), childCard(1), p.card)
	case *algebra.LoopJoin:
		if len(p.kids) != 2 {
			return fmt.Errorf("opt: loop join with %d kids", len(p.kids))
		}
		inner := p.kids[1]
		self = m.LoopJoin(childCard(0), inner.cost, inner.rescan, p.card)
		total = p.kids[0].cost + self
	case *algebra.BatchLoopJoin:
		if len(p.kids) != 2 {
			return fmt.Errorf("opt: batch loop join with %d kids", len(p.kids))
		}
		inner := p.kids[1]
		self = m.BatchLoopJoin(childCard(0), float64(op.BatchSize), inner.cost, inner.rescan, p.card)
		total = p.kids[0].cost + self
	case *algebra.HashAgg:
		self = m.Agg(childCard(0), true)
	case *algebra.StreamAgg:
		self = m.Agg(childCard(0), false)
	case *algebra.Sort:
		self = m.Sort(childCard(0))
	case *algebra.TopN:
		if len(op.Order) > 0 {
			self = m.Sort(childCard(0))
		} else {
			self = childCard(0) * 0.1
		}
	case *algebra.Concat:
		self = p.card * 0.1
		// Parallel exchange: with ≥2 remote children the executor drives
		// them concurrently, so their costs contribute as a max rather
		// than a sum — which is what makes the optimizer prefer fan-out
		// plans over serializing a federated partitioned view.
		var remoteCosts []float64
		localCost := 0.0
		for _, k := range p.kids {
			if k.remote {
				remoteCosts = append(remoteCosts, k.cost)
			} else {
				localCost += k.cost
			}
		}
		if len(remoteCosts) >= 2 {
			total = m.ParallelConcat(remoteCosts, localCost, p.card) + self
		}
	case *algebra.Spool:
		self = m.Spool(childCard(0))
		rescan = m.SpoolRescan(childCard(0))
	case *algebra.ConstScan:
		self = float64(len(op.Rows))
	case *algebra.EmptyScan:
		self = 0
	default:
		return fmt.Errorf("opt: no cost model for %s", p.op.OpName())
	}

	if total < 0 {
		total = kidCost + self
	}
	if c.StartupProb > 0 {
		total *= c.StartupProb
	}
	p.cost = total
	if rescan >= 0 {
		p.rescan = rescan
	} else {
		p.rescan = total
	}
	return nil
}

// predContains reports whether a predicate carries a CONTAINS term (naive
// full-text evaluation is far more expensive per row).
func predContains(pred expr.Expr) bool {
	found := false
	expr.Visit(pred, func(n expr.Expr) bool {
		if _, ok := n.(*expr.Contains); ok {
			found = true
		}
		return !found
	})
	return found
}

func rescanOf(kids []*planned) float64 {
	s := 0.0
	for _, k := range kids {
		s += k.rescan
	}
	return s
}
