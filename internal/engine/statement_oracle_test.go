package engine

import (
	"flag"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/oracle"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/sqltypes"
)

var oracleSeed = flag.Int64("oracle.seed", 1, "seed of the statements TestStatementOracle draws (soak runs pass others)")

// oraclePerFamily is how many statements TestStatementOracle draws per
// shape family, beside the fixed cases.
const oraclePerFamily = 24

// oracleCell converts an engine value into the oracle's value model.
func oracleCell(v sqltypes.Value) oracle.Cell {
	switch v.Kind() {
	case sqltypes.KindNull:
		return oracle.Cell{}
	case sqltypes.KindInt:
		return oracle.IntCell(v.Int())
	case sqltypes.KindFloat:
		return oracle.FloatCell(v.Float())
	case sqltypes.KindString:
		return oracle.StrCell(v.Str())
	case sqltypes.KindBool:
		return oracle.BitCell(v.Bool())
	case sqltypes.KindDate:
		return oracle.DateCell(v.DateDays())
	}
	panic("oracle: no cell for a " + v.Kind().String())
}

// engineValue converts an oracle cell into a parameter value.
func engineValue(c oracle.Cell) sqltypes.Value {
	switch c.K {
	case oracle.Int:
		return sqltypes.NewInt(c.I)
	case oracle.Float:
		return sqltypes.NewFloat(c.F)
	case oracle.Str:
		return sqltypes.NewString(c.S)
	}
	return sqltypes.Null
}

// oraclePlacement is one way of holding the oracle's tables: in the
// queried server, or on a linked server (member) behind one view per table.
type oraclePlacement struct {
	name   string
	s      *Server
	member *Server
}

// headTable is the one table a linked placement's head holds itself: a
// small local outer joined to a remote table is the shape a batched
// parameterized join serves.
const headTable = "dim2"

// linkedTargets are the operators at least one drawn plan of the linked
// placements must contain: the spool over a rescanned remote inner and the
// batched remote lookup exist only there.
var linkedTargets = []string{"Spool", "BatchLoopJoin"}

// oraclePlacements loads db locally, and behind a sqlful linked server at
// SQL-92 full and at SQL-Minimum, where the head holds headTable itself and
// reaches every other table through a view of the same name and the
// partitioned view's members directly.
func oraclePlacements(t *testing.T, db *oracle.DB) []oraclePlacement {
	t.Helper()
	local := NewServer("local", "odb")
	for _, sql := range db.Script() {
		local.MustExec(sql)
	}
	out := []oraclePlacement{{"local", local, nil}}
	for _, level := range []struct {
		name string
		caps oledb.Capabilities
	}{{"sql92-full", sqlful.FullSQLCapabilities()}, {"sql-minimum", sqlful.MinimalSQLCapabilities()}} {
		member := NewServer("m", "odb")
		for _, sql := range db.Script() {
			member.MustExec(sql)
		}
		head := NewServer("head", "hdb")
		link := netsim.LAN()
		if err := head.AddLinkedServer("m", sqlful.New(member, link, level.caps), link); err != nil {
			t.Fatal(err)
		}
		remote := func(name string) string { return "m.odb.dbo." + name }
		for _, tab := range db.Tables {
			if tab.Name == headTable {
				for _, sql := range tab.Script {
					head.MustExec(sql)
				}
				continue
			}
			head.MustExec("CREATE VIEW " + tab.Name + " AS SELECT * FROM " + remote(tab.Name))
		}
		for _, v := range db.Views {
			head.MustExec(db.ViewSQL(v, remote))
		}
		out = append(out, oraclePlacement{level.name, head, member})
	}
	return out
}

// oracleRun runs one drawn statement and checks it against the oracle.
func oracleRun(s *Server, db *oracle.DB, st *oracle.Stmt) error {
	var params map[string]sqltypes.Value
	if st.Params != nil {
		params = map[string]sqltypes.Value{}
		for k, v := range st.Params {
			params[k] = engineValue(v)
		}
	}
	res, err := s.Query(st.SQL(), params)
	if err != nil {
		return err
	}
	got := make([][]oracle.Cell, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = make([]oracle.Cell, len(r))
		for j, v := range r {
			got[i][j] = oracleCell(v)
		}
	}
	return db.Check(st, got)
}

// opNames collects the operator names of a physical plan.
func opNames(n *algebra.Node, into map[string]bool) {
	into[n.Op.OpName()] = true
	for _, k := range n.Kids {
		opNames(k, into)
	}
}

// TestStatementOracle holds the engine to an evaluator that shares no code
// with it: every fixed and drawn statement must return the oracle's answer
// at batch sizes 1, 3 and the default, with its tables held locally and
// behind a linked server at SQL-92 full and at SQL-Minimum. Each shape
// family must put its target operators into at least one drawn local plan,
// and the linked placements theirs into at least one drawn plan, or the
// test covers less than it claims. No statement writes into the columnar
// image of a table it reads.
func TestStatementOracle(t *testing.T) {
	db := oracle.NewDB()
	cases := db.Cases(*oracleSeed, oraclePerFamily)
	places := oraclePlacements(t, db)
	var stores []*Server
	for _, p := range places {
		stores = append(stores, p.s)
		if p.member != nil {
			stores = append(stores, p.member)
		}
	}
	defer holdImages(t, stores...).check(t)

	seen, linked := map[string]map[string]bool{}, map[string]bool{}
	for _, st := range cases[len(oracle.Seeds()):] { // the drawn ones
		for i, p := range places {
			plan, _, _, err := p.s.Plan(st.SQL())
			if err != nil {
				t.Fatalf("%s: %s: %v", p.name, st.SQL(), err)
			}
			if i > 0 {
				opNames(plan, linked)
				continue
			}
			if seen[st.Family] == nil {
				seen[st.Family] = map[string]bool{}
			}
			opNames(plan, seen[st.Family])
		}
	}
	for _, fam := range oracle.Families {
		for _, op := range fam.Targets {
			if !seen[fam.Name][op] {
				t.Errorf("family %s: no local plan has a %s", fam.Name, op)
			}
		}
	}
	for _, op := range linkedTargets {
		if !linked[op] {
			t.Errorf("no linked placement's plan has a %s", op)
		}
	}

	failures := 0
	for _, p := range places {
		for _, size := range []int{1, 3, 0} {
			p.s.Configure(func(c *Config) { c.BatchSize = size })
			for i, st := range cases {
				if err := oracleRun(p.s, db, st); err != nil {
					t.Errorf("%s/batch=%d case %d [%s] (seed %d): %s\n  %v", p.name, size, i, st.Family, *oracleSeed, st.SQL(), err)
					if failures++; failures > 20 {
						t.Fatal("too many disagreements")
					}
				}
			}
		}
	}
}
