// Package opt implements the optimizer driver on top of the Memo and the
// rule engine: normalization, phased exploration (transaction processing /
// quick plan / full optimization with early exit, §4.1.1), cost-based
// implementation with the output-cardinality remote cost model (§4.1.3),
// and the sort/spool enforcers.
package opt

import (
	"fmt"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/cost"
	"dhqp/internal/decoder"
	"dhqp/internal/memo"
	"dhqp/internal/rules"
)

// Config tunes the optimizer.
type Config struct {
	// Model is the cost model; nil uses a default.
	Model *cost.Model
	// TPThreshold and QuickThreshold are the early-exit cost bounds after
	// the transaction-processing and quick-plan phases ("if the cost of
	// the best solution found after a phase is acceptable, the solution
	// is returned").
	TPThreshold    float64
	QuickThreshold float64
	// MaxPhase caps the phases run (ablation experiments force a phase).
	MaxPhase rules.Phase
	// ExploreBudget bounds exploration passes per phase.
	ExploreBudget int
}

// DefaultConfig returns production-ish settings.
func DefaultConfig() Config {
	return Config{
		// TP-phase plans are acceptable only when they are point-lookup
		// cheap; anything touching a remote link (≥1 ms) proceeds to the
		// quick-plan phase where the remote rules live.
		TPThreshold:    500,
		QuickThreshold: 100_000,
		MaxPhase:       rules.PhaseFull,
		ExploreBudget:  64,
	}
}

// Report describes one optimization run (experiment E8 reads it).
type Report struct {
	PhaseReached rules.Phase
	PhaseCosts   []float64
	PhaseTimes   []time.Duration
	Groups       int
	Exprs        int
	// RulesFired counts exploration-rule applications that produced at
	// least one alternative (the EXPLAIN "rules fired" diagnostic).
	RulesFired int
	FinalCost  float64
	// RootCard is the optimizer's output-cardinality estimate for the
	// query (experiment E4 compares it against actual row counts).
	RootCard float64
}

// Optimizer drives one statement's optimization.
type Optimizer struct {
	cfg        Config
	memo       *memo.Memo
	rctx       *rules.Context
	model      *cost.Model
	phase      rules.Phase
	rulesFired int
	// impl holds each group expression's implementation candidates for
	// the running phase: built once, costed under every required ordering.
	impl map[*memo.GroupExpr][]*rules.Candidate
}

// New builds an optimizer over a populated rules.Context (whose Memo field
// may be nil; Optimize sets it).
func New(cfg Config, rctx *rules.Context) *Optimizer {
	model := cfg.Model
	if model == nil {
		model = &cost.Model{}
	}
	if cfg.ExploreBudget == 0 {
		cfg.ExploreBudget = 64
	}
	return &Optimizer{cfg: cfg, rctx: rctx, model: model}
}

// Optimize searches for the best plan of the logical tree, honoring the
// required root ordering. md supplies statistics for property derivation.
func (o *Optimizer) Optimize(root *algebra.Node, md memo.Metadata, requiredOrder algebra.Ordering) (*algebra.Node, *Report, error) {
	m := memo.New(md)
	o.memo = m
	o.rctx.Memo = m
	rootGroup := m.Insert(root)
	required := memo.PhysProps{Order: requiredOrder}

	report := &Report{}
	var best *memo.Winner
	for p := rules.PhaseTP; p <= o.cfg.MaxPhase; p++ {
		start := time.Now()
		o.phase = p
		o.rctx.Phase = p
		o.explore(p)
		m.ClearWinners()
		o.impl = map[*memo.GroupExpr][]*rules.Candidate{}
		w, err := o.optimizeGroup(rootGroup, required)
		if err != nil {
			return nil, nil, err
		}
		best = w
		report.PhaseReached = p
		report.PhaseCosts = append(report.PhaseCosts, w.Cost)
		report.PhaseTimes = append(report.PhaseTimes, time.Since(start))
		if p == rules.PhaseTP && w.Cost <= o.cfg.TPThreshold {
			break
		}
		if p == rules.PhaseQuick && w.Cost <= o.cfg.QuickThreshold {
			break
		}
	}
	if best == nil || best.Plan == nil {
		return nil, nil, fmt.Errorf("opt: no plan found")
	}
	report.Groups = len(m.Groups)
	report.Exprs = m.ExprCount()
	report.RulesFired = o.rulesFired
	report.FinalCost = best.Cost
	report.RootCard = m.Group(rootGroup).Props.Cardinality
	plan, err := best.Plan.(*planned).toNode()
	if err != nil {
		return nil, nil, err
	}
	return plan, report, nil
}

// Memo exposes the memo after optimization (tests and diagnostics).
func (o *Optimizer) Memo() *memo.Memo { return o.memo }

// explore applies exploration rules to a fixpoint (bounded). Duplicate
// alternatives cost nothing extra thanks to the Memo's digest dedup.
func (o *Optimizer) explore(phase rules.Phase) {
	for pass := 0; pass < o.cfg.ExploreBudget; pass++ {
		before := o.memo.ExprCount()
		// Groups can grow while iterating; index-based loops observe the
		// additions.
		for gi := 0; gi < len(o.memo.Groups); gi++ {
			g := o.memo.Groups[gi]
			for ei := 0; ei < len(g.Exprs); ei++ {
				e := g.Exprs[ei]
				if !e.Op.Logical() {
					continue
				}
				for _, r := range rules.Guidance(e.Op, phase) {
					xs := r.Apply(e, o.rctx)
					if len(xs) > 0 {
						o.rulesFired++
					}
					for _, x := range xs {
						o.memo.InsertX(x, e.Group)
					}
				}
			}
		}
		if o.memo.ExprCount() == before {
			return
		}
	}
}

// planned is a chosen physical subtree; winners store it.
type planned struct {
	op       algebra.Operator
	kids     []*planned
	cost     float64
	rescan   float64
	provides algebra.Ordering
	card     float64
	width    float64
	// from is the candidate the node was costed from (nil for enforcers).
	from *rules.Candidate
	// remote: some operator in the subtree reaches across a network link
	// (algebra.HasRemoteOp, the executor's parallel-fan-out decision, so
	// costing and execution agree).
	remote bool
}

// writeSQL writes a kept RemoteQuery's statement; tests count its calls.
var writeSQL = decoder.Decode

// toNode extracts the plan, writing each kept RemoteQuery's statement.
func (p *planned) toNode() (*algebra.Node, error) {
	kids := make([]*algebra.Node, len(p.kids))
	for i, k := range p.kids {
		var err error
		if kids[i], err = k.toNode(); err != nil {
			return nil, err
		}
	}
	op := p.op
	if rq, ok := op.(*algebra.RemoteQuery); ok && p.from.Pushed != nil {
		res, err := writeSQL(p.from.Pushed, p.from.Caps)
		if err != nil {
			return nil, fmt.Errorf("opt: writing the statement pushed to %s: %w", rq.Server, err)
		}
		w := *rq
		w.SQL, w.Params, w.Binds = res.SQL, res.Params, res.Binds
		op = &w
	}
	n := algebra.NewNode(op, kids...)
	// Annotate the extracted plan with the winner's estimates so EXPLAIN
	// ANALYZE can show estimated vs. actual rows per operator.
	n.Est = &algebra.Est{Rows: p.card, Cost: p.cost}
	return n, nil
}

// optimizeGroup finds the cheapest plan for (group, required) with winner
// caching — the Memo's "no extra work to re-search this portion of the
// possible query space".
func (o *Optimizer) optimizeGroup(g memo.GroupID, required memo.PhysProps) (*memo.Winner, error) {
	if w, ok := o.memo.Winner(g, required); ok {
		if w == nil {
			return nil, fmt.Errorf("opt: cyclic optimization of group %d", g)
		}
		return w, nil
	}
	// Mark in-progress to catch cycles.
	o.memo.SetWinner(g, required, nil)

	grp := o.memo.Group(g)
	var best *planned

	if grp.Props.Unsatisfiable {
		// Static pruning (§4.1.5): provably-empty groups implement as an
		// empty scan regardless of alternatives.
		best = &planned{
			op:       &algebra.EmptyScan{Cols: grp.Props.OutCols},
			provides: required.Order, // vacuously ordered
		}
	} else {
		for _, e := range grp.Exprs {
			if !e.Op.Logical() {
				continue
			}
			cands, ok := o.impl[e]
			if !ok {
				for _, r := range rules.ImplGuidance(e.Op, o.phase) {
					if cs := r.Candidates(e, o.rctx); cands == nil {
						cands = cs
					} else {
						cands = append(cands, cs...)
					}
				}
				o.impl[e] = cands
			}
			for _, c := range cands {
				p, err := o.costCandidate(c, grp, required, false)
				if err != nil {
					return nil, err
				}
				if p != nil && (best == nil || p.cost < best.cost) {
					best = p
				}
			}
		}
		// Sort enforcer: deliver a missing ordering by sorting the best
		// order-agnostic plan (§4.1.1: "for sort, an enforcer can insert
		// a physical sort operation to introduce order when needed").
		if len(required.Order) > 0 {
			anyW, err := o.optimizeGroup(g, memo.Any)
			if err == nil && anyW != nil && anyW.Plan != nil {
				base := anyW.Plan.(*planned)
				sorted := &planned{
					op:       &algebra.Sort{Order: required.Order},
					kids:     []*planned{base},
					cost:     base.cost + o.model.Sort(grp.Props.Cardinality),
					provides: required.Order,
					card:     base.card,
					width:    base.width,
					remote:   base.remote,
				}
				sorted.rescan = sorted.cost
				if best == nil || sorted.cost < best.cost {
					best = sorted
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no implementation for group %d (op %s)", g, grp.Exprs[0].Op.OpName())
	}
	w := &memo.Winner{Plan: best, Cost: best.cost, RescanCost: best.rescan, Provides: best.provides}
	o.memo.SetWinner(g, required, w)
	return w, nil
}
