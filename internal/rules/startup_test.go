package rules

import (
	"dhqp/internal/rowset"
	"math/rand"
	"testing"

	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

// Bounds and parameter values are multiples of 0.5 between startupLo and
// startupHi, so any non-empty region they delimit holds a multiple of 0.25:
// startupGrid stands in for the column's whole (dense) value space.
const (
	startupLo, startupHi = -6, 16
	startupMargin        = 3
)

func startupGrid() []sqltypes.Value {
	var g []sqltypes.Value
	for q := 4 * (startupLo - startupMargin); q <= 4*(startupHi+startupMargin); q++ {
		g = append(g, sqltypes.NewFloat(float64(q)/4))
	}
	return g
}

// randStartupDomain draws zero to three intervals — point, open, closed,
// half-open, half-unbounded, inverted (empty) — and normalizes them.
func randStartupDomain(rng *rand.Rand) *constraint.Domain {
	bound := func() sqltypes.Value {
		return sqltypes.NewInt(int64(startupLo + rng.Intn(startupHi-startupLo+1)))
	}
	raw := &constraint.Domain{}
	for n := rng.Intn(4); n > 0; n-- {
		iv := constraint.Interval{Lo: bound(), Hi: bound(), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		switch rng.Intn(6) {
		case 0:
			iv = constraint.Point(iv.Lo)
		case 1:
			iv.LoUnbounded = true
		case 2:
			iv.HiUnbounded = true
		}
		raw.Intervals = append(raw.Intervals, iv)
	}
	return constraint.FullDomain().Intersect(raw) // drops the empty, merges the rest
}

func randStartupParam(rng *rand.Rand) sqltypes.Value {
	half := 2*startupLo + rng.Intn(2*(startupHi-startupLo)+1)
	switch rng.Intn(6) {
	case 0:
		return sqltypes.Null
	case 1, 2:
		return sqltypes.NewFloat(float64(half) / 2) // x.0 and x.5 as FLOAT
	default:
		return sqltypes.NewInt(int64(half / 2))
	}
}

// TestStartupPredicateSoundness is the pruning property: over random
// domains and random conjunctions of = < <= > >= (and <>, BETWEEN, constant
// and other-column conjuncts, both operand orders) against random parameter
// values (INT, FLOAT, NULL, @lo > @hi), the startup predicate holds for
// every member whose domain has a value satisfying the conjuncts — it never
// drops a qualifying member — and, for domains bounded on both sides, it
// holds only if each conjunct alone is satisfiable in the domain, so a
// member disjoint from any one comparison is pruned.
func TestStartupPredicateSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const keyCol, otherCol = expr.ColumnID(1), expr.ColumnID(2)
	key, other := expr.BoundColRef(keyCol, "k", 0), expr.BoundColRef(otherCol, "v", 1)
	grid := startupGrid()
	ops := []expr.Op{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpNe}
	pruned, kept := 0, 0
	for iter := 0; iter < 20000; iter++ {
		d := randStartupDomain(rng)
		params := map[string]sqltypes.Value{}
		var conjuncts, prunable []expr.Expr
		newParam := func() *expr.Param {
			name := string(rune('a' + len(params)))
			params[name] = randStartupParam(rng)
			return expr.NewParam(name)
		}
		compare := func(op expr.Op, val expr.Expr) expr.Expr {
			if rng.Intn(2) == 0 {
				return expr.NewBinary(op.Commute(), val, key) // @p op' col
			}
			return expr.NewBinary(op, key, val)
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch k := rng.Intn(10); {
			case k == 0: // BETWEEN, as the binder splits it
				lo, hi := compare(expr.OpGe, newParam()), compare(expr.OpLe, newParam())
				conjuncts = append(conjuncts, lo, hi)
				prunable = append(prunable, lo, hi)
			case k == 1: // a constant comparison: static pruning's business, not ours
				conjuncts = append(conjuncts, compare(ops[rng.Intn(5)], expr.NewConst(sqltypes.NewInt(5))))
			case k == 2: // another column, no domain
				conjuncts = append(conjuncts, expr.NewBinary(expr.OpGe, other, newParam()))
			default:
				op := ops[rng.Intn(len(ops))]
				c := compare(op, newParam())
				conjuncts = append(conjuncts, c)
				if op != expr.OpNe {
					prunable = append(prunable, c)
				}
			}
		}
		pred := expr.Conjoin(conjuncts)
		sp := startupPredicate(pred, constraint.Map{keyCol: d})

		open := true
		if sp != nil {
			v, err := expr.EvalScalar(sp, &expr.Env{Params: params})
			if err != nil {
				t.Fatalf("startup predicate %s: %v", sp, err)
			}
			open = expr.Truthy(v)
		}
		// satisfiable reports whether some value of the domain passes e
		// (the other column never stands in the way).
		satisfiable := func(e expr.Expr) bool {
			for _, x := range grid {
				if !d.Contains(x) {
					continue
				}
				cols := make([]rowset.Vec, 2)
				for j, v := range []sqltypes.Value{x, sqltypes.NewInt(100)} {
					cols[j].ResetGeneric(1)
					cols[j].Gen()[0] = v
				}
				ok, err := expr.FilterSel(e, &expr.Env{Params: params}, cols, []int{0}, nil)
				if err != nil {
					t.Fatalf("%s: %v", e, err)
				}
				if len(ok) == 1 {
					return true
				}
			}
			return false
		}
		if !open && satisfiable(pred) {
			t.Fatalf("iter %d: dropped a qualifying member: domain %s, predicate %s, params %v, startup %s", iter, d, pred, params, sp)
		}
		bounded := true
		for _, iv := range d.Intervals {
			bounded = bounded && !iv.LoUnbounded && !iv.HiUnbounded
		}
		if bounded {
			each := true
			for _, c := range prunable {
				each = each && satisfiable(c)
			}
			if open != each {
				t.Fatalf("iter %d: startup = %v but per-conjunct satisfiability = %v: domain %s, predicate %s, params %v, startup %s", iter, open, each, d, pred, params, sp)
			}
		}
		if open {
			kept++
		} else {
			pruned++
		}
	}
	if pruned < 2000 || kept < 2000 {
		t.Errorf("generator is lopsided: %d pruned, %d kept", pruned, kept)
	}
}
