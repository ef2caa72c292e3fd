// Package rules implements the Cascades rule engine (§4.1.1–4.1.2): rules
// match a logical query pattern and introduce new patterns. Rules divide
// into Simplification (heuristic rewrites, run through the same framework),
// Exploration (equivalent logical alternatives) and Implementation (physical
// alternatives); Enforcer behaviour (sort, spool-over-remote) lives in the
// optimizer driver and the join implementation rule.
//
// Each operator provides Guidance — the rules that could match it — and
// each rule carries a Promise ordering its application, exactly as the
// paper describes. Remote rules (locality grouping, parameterization,
// build-remote-query, remote scan/range/fetch) sit beside local rules in
// the same engine.
package rules

import (
	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/memo"
	"dhqp/internal/oledb"
)

// Phase enumerates the optimization phases (§4.1.1): "transaction
// processing, quick plan and full optimization", each enabling a wider rule
// set.
type Phase int

// Optimization phases.
const (
	PhaseTP Phase = iota
	PhaseQuick
	PhaseFull
)

// String names the phase as the paper does.
func (p Phase) String() string {
	switch p {
	case PhaseTP:
		return "transaction processing"
	case PhaseQuick:
		return "quick plan"
	case PhaseFull:
		return "full optimization"
	default:
		return "unknown phase"
	}
}

// FulltextIndexInfo describes a full-text catalog serving a base table
// column (§2.3, Figure 2).
type FulltextIndexInfo struct {
	// Server is the linked server hosting the search service.
	Server string
	// Catalog is the full-text catalog name.
	Catalog string
}

// Context supplies the rule engine's environment.
type Context struct {
	Memo *memo.Memo
	// CapsFor returns the capability set of a linked server ("" = local
	// native provider).
	CapsFor func(server string) (oledb.Capabilities, bool)
	// NewCol allocates fresh ColumnIDs (full-text KEY/RANK outputs).
	NewCol func() expr.ColumnID
	// FulltextIndex resolves a full-text catalog for (table source,
	// column name), or reports none.
	FulltextIndex func(src *algebra.Source, column string) (FulltextIndexInfo, bool)
	// TableCardFn estimates a base table's cardinality (remote-work
	// costing for pushed statements).
	TableCardFn func(src *algebra.Source) float64
	// DisableSpool suppresses the spool-over-remote enforcer (ablation
	// experiment E7).
	DisableSpool bool
	// DisableParameterization suppresses the parameterization rule
	// (ablation experiment E9).
	DisableParameterization bool
	// DisableAggSplit suppresses partial-aggregation pushdown through
	// UNION ALL (the row-shipping baseline of experiment E19).
	DisableAggSplit bool
	// RemoteBatchSize is the number of outer-key slots a batched
	// parameterized join ships per remote call. Values below 2 disable
	// batched parameterization (serial parameterization still applies).
	RemoteBatchSize int
	// Phase is the optimization phase currently running; rules whose
	// alternatives only make sense against a fully explored search space
	// (remote join collapse vs. join reorderings) consult it.
	Phase Phase
}

// ExplorationRule generates logically equivalent alternatives.
type ExplorationRule interface {
	// Name identifies the rule (also the fired-marker key).
	Name() string
	// Promise orders rule application; higher runs earlier (§4.1.1:
	// pushing filters has high promise).
	Promise() int
	// MinPhase is the first phase in which the rule is enabled.
	MinPhase() Phase
	// Apply returns new alternatives for e's group; each XNode is
	// inserted with e's group as the target.
	Apply(e *memo.GroupExpr, ctx *Context) []*memo.XNode
}

// Guidance returns the exploration rules that could match the operator —
// "each operator contains a routine called Guidance that enumerates rules
// that could match it" (§4.1.1) — filtered by phase, in promise order.
func Guidance(op algebra.Operator, phase Phase) []ExplorationRule {
	var out []ExplorationRule
	for _, r := range explorationRules {
		if r.MinPhase() <= phase && ruleMatchesRoot(r, op) {
			out = append(out, r)
		}
	}
	return out
}

// explorationRules is the registry, by promise, highest first: Guidance
// keeps this order.
var explorationRules = []ExplorationRule{
	&PushSelectIntoJoin{},
	&PushSelectIntoUnionAll{},
	&SelectMerge{},
	&PruneEmptyUnionArms{},
	&GroupJoinsByLocality{},
	&SplitAggThroughUnion{},
	&JoinCommute{},
	&ParameterizeJoin{},
	&BatchParameterizeJoin{},
	&JoinAssociate{},
}

func ruleMatchesRoot(r ExplorationRule, op algebra.Operator) bool {
	switch r.(type) {
	case *SelectMerge, *PushSelectIntoJoin, *PushSelectIntoUnionAll:
		_, ok := op.(*algebra.Select)
		return ok
	case *PruneEmptyUnionArms:
		_, ok := op.(*algebra.UnionAll)
		return ok
	case *JoinCommute, *JoinAssociate, *GroupJoinsByLocality, *ParameterizeJoin, *BatchParameterizeJoin:
		_, ok := op.(*algebra.Join)
		return ok
	case *SplitAggThroughUnion:
		_, ok := op.(*algebra.GroupBy)
		return ok
	default:
		return false
	}
}
