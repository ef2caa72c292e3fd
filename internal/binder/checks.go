package binder

import (
	"slices"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/once"
	"dhqp/internal/parser"
	"dhqp/internal/schema"
)

// tableChecks is a table definition's CHECK constraints parsed and bound
// once, over the numbering of the binder's table scalars (column ordinal i
// is ColumnID i+1).
type tableChecks struct {
	checks []boundCheckText
	// domains is what CheckDomains returns over that numbering.
	domains constraint.Map
	// preds are the constraints bound to the table's positional row
	// layout; predsErr is the first that did not parse or bind.
	preds    []BoundCheck
	predsErr error
}

// boundCheckText is one CHECK text that parsed and bound: deps are the
// ordinals it reads, conj the domains its conjuncts imply, in
// ApplyPredicate's order.
type boundCheckText struct {
	deps []int
	conj []constraint.ColDomain
}

// checkCache holds each definition's bound CHECK constraints.
var checkCache = once.New[string, *tableChecks](4096)

// checksOf returns def's bound CHECK constraints, binding them on first
// use. The cache key is everything the binding reads — the table's name,
// its columns' names and kinds, and the CHECK texts — so a table dropped
// and recreated with another CHECK, or a member whose partition range
// moved, binds anew and never meets a stale binding.
func checksOf(def *schema.Table) *tableChecks {
	var buf [256]byte
	key := append(buf[:0], def.Name...)
	for _, c := range def.Columns {
		key = append(append(append(key, 0), c.Name...), byte(c.Kind))
	}
	for _, text := range def.Checks {
		key = append(append(key, 1), text...)
	}
	if tc, ok := once.GetBytes(checkCache, key); ok {
		return tc
	}
	tc := bindChecks(def)
	checkCache.Put(string(key), tc)
	return tc
}

func bindChecks(def *schema.Table) *tableChecks {
	tc := &tableChecks{}
	cols := make([]algebra.OutCol, len(def.Columns))
	layout := map[int]int{}
	for i, c := range def.Columns {
		cols[i] = algebra.OutCol{ID: expr.ColumnID(i + 1), Name: c.Name, Kind: c.Kind}
		layout[i+1] = i
	}
	sc := &scope{}
	sc.addRel(def.Name, cols)
	for _, text := range def.Checks {
		ast, err := parser.ParseExpr(text)
		var e expr.Expr
		if err == nil {
			e, _, err = (&exprBinder{b: New(nil), sc: sc}).bind(ast)
		}
		var bound expr.Expr
		if err == nil {
			bound, err = bindPositional(e, layout)
		}
		if err != nil {
			// It contributes no domain, and enforcement reports it.
			if tc.predsErr == nil {
				tc.predsErr = err
			}
			continue
		}
		var bc boundCheckText
		for id := range expr.Cols(e) {
			bc.deps = append(bc.deps, int(id)-1)
		}
		for _, c := range expr.SplitConjuncts(e) {
			if d := constraint.DerivePredicateDomainTarget(c); d != nil {
				bc.conj = append(bc.conj, *d)
			}
		}
		tc.checks = append(tc.checks, bc)
		tc.preds = append(tc.preds, BoundCheck{Text: text, Pred: bound})
	}
	ids := make([]expr.ColumnID, len(def.Columns)+1)
	for i := range ids {
		ids[i] = expr.ColumnID(i)
	}
	tc.domains = tc.replay(ids)
	return tc
}

// replay applies the constraints' conjunct domains as ApplyPredicate
// would, renumbering ordinal i to ids[i+1]; a constraint that reads a
// column ids leaves 0 contributes nothing.
func (tc *tableChecks) replay(ids []expr.ColumnID) constraint.Map {
	out := constraint.Map{}
	for _, bc := range tc.checks {
		if slices.ContainsFunc(bc.deps, func(ord int) bool { return ids[ord+1] == 0 }) {
			continue
		}
		for _, cd := range bc.conj {
			id := ids[cd.Col]
			nd := out.DomainOf(id).Intersect(cd.Domain)
			out[id] = nd
			if nd.Empty() {
				// Contradictory constraints: the table can hold no rows.
				// Leave the empty domain in place; property derivation
				// marks the group unsatisfiable.
				return out
			}
		}
	}
	return out
}

// CheckDomains derives the column domains a table's CHECK constraints
// imply, keyed by the Get's output ColumnIDs. The memo's property
// derivation calls this through the engine's Metadata so every Get carries
// its CHECK-implied domains (§4.1.5: "constraint properties can be derived
// from ... constraints defined over columns in the source tables"). A
// constraint that reads a column the Get does not output, or that does not
// parse or bind, contributes nothing.
func CheckDomains(def *schema.Table, cols []algebra.OutCol) constraint.Map {
	if def == nil || len(def.Checks) == 0 {
		return nil
	}
	// ids maps ColumnID ordinal+1 to the Get's column of that name.
	ids := make([]expr.ColumnID, len(def.Columns)+1)
	for i, c := range def.Columns {
		if j := slices.IndexFunc(cols, func(o algebra.OutCol) bool { return strings.EqualFold(o.Name, c.Name) }); j >= 0 {
			ids[i+1] = cols[j].ID
		}
	}
	return checksOf(def).replay(ids)
}

// TableDomains is CheckDomains over the binder's table-scalar numbering
// (column ordinal i is ColumnID i+1), derived once per definition. Callers
// share the map and must not modify it.
func TableDomains(def *schema.Table) constraint.Map {
	if len(def.Checks) == 0 {
		return nil
	}
	return checksOf(def).domains
}

// CheckPredicate returns a table's CHECK constraints bound to its own
// column layout (positional), for DML-time enforcement. Callers share the
// bound expressions and must not modify them.
func CheckPredicate(def *schema.Table) ([]BoundCheck, error) {
	if len(def.Checks) == 0 {
		return nil, nil
	}
	tc := checksOf(def)
	if tc.predsErr != nil {
		return nil, tc.predsErr
	}
	return tc.preds, nil
}

// BoundCheck is one CHECK constraint bound to the table's row layout.
type BoundCheck struct {
	Text string
	Pred boundExpr
}
