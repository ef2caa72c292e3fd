package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/parser"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/sqltypes"
)

// roundTripRows is the member table of the decoder round trip: INT (values
// past 2^53 included), FLOAT, VARCHAR (a quote, a LIKE metacharacter) and
// DATE columns, with a NULL in each.
var roundTripRows = []string{
	"(1, 0, 0.25, 'a', '1995-01-01')",
	"(2, 3, -1.5, 'ab', '1995-06-30')",
	"(3, -5, 2, 'it''s', '1996-02-29')",
	"(4, 9007199254740993, 1000.125, 'b%c', '1994-12-31')",
	"(5, 9007199254740992, 0, '', '2000-01-01')",
	"(6, NULL, NULL, NULL, NULL)",
	"(7, 3, 0.25, 'B', '1995-01-01')",
	"(8, -9007199254740993, 7.5, 'abc', '1999-12-31')",
}

// roundTripLevels are the dialects every fuzz input decodes under.
var roundTripLevels = []struct {
	server string
	caps   func() oledb.Capabilities
}{
	{"rt_full", sqlful.FullSQLCapabilities},
	{"rt_core", sqlful.ODBCCoreCapabilities},
	{"rt_min", sqlful.MinimalSQLCapabilities},
	{"rt_noparams", func() oledb.Capabilities {
		caps := sqlful.FullSQLCapabilities()
		caps.Profile.Params = false
		return caps
	}},
}

type roundTripFixture struct {
	head, member *Server
}

var (
	roundTripOnce sync.Once
	roundTrip     roundTripFixture
)

// roundTripServers builds, once per process, a member holding the table, a
// head linked to it once per dialect level, and a native copy of the table
// on the head.
func roundTripServers() roundTripFixture {
	roundTripOnce.Do(func() {
		ddl := `CREATE TABLE t (id INT, i INT, f FLOAT, s VARCHAR(16), d DATE)`
		ins := `INSERT INTO t VALUES ` + strings.Join(roundTripRows, ", ")
		member := NewServer("member", "fed")
		member.MustExec(ddl)
		member.MustExec(ins)
		head := NewServer("head", "fed")
		head.MustExec(ddl)
		head.MustExec(ins)
		for _, lv := range roundTripLevels {
			link := netsim.LAN()
			if err := head.AddLinkedServer(lv.server, sqlful.New(member, link, lv.caps()), link); err != nil {
				panic(err)
			}
		}
		roundTrip = roundTripFixture{head: head, member: member}
	})
	return roundTrip
}

// predGen draws a predicate over t from fuzz bytes; an exhausted input
// reads as zeros, so every input yields a predicate.
type predGen struct {
	data []byte
	pos  int
}

func (g *predGen) next(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % n
}

var (
	intConsts   = []string{"0", "3", "-5", "9007199254740993", "9007199254740992", "-9007199254740993", "NULL"}
	floatConsts = []string{"0.25", "-1.5", "2", "1000.125", "7.5", "NULL"}
	strConsts   = []string{"'a'", "'ab'", "'it''s'", "'b%c'", "''", "'B'", "NULL"}
	dateConsts  = []string{"'1995-01-01'", "'1996-02-29'", "'1994-12-31'", "'2000-01-01'", "NULL"}
	likePats    = []string{"'a%'", "'%b%'", "'_'", "'it%'", "'%'", "'b[%]c'"}
	cmpOps      = []string{"=", "<>", "<", "<=", ">", ">="}
)

// constFor draws a constant of col's kind.
func (g *predGen) constFor(col string) string {
	consts := map[string][]string{"i": intConsts, "f": floatConsts, "s": strConsts, "d": dateConsts}[col]
	return consts[g.next(len(consts))]
}

// operand returns a column and a constant that compares with it; an INT
// column is also compared with FLOAT constants.
func (g *predGen) operand() (string, string) {
	col := []string{"i", "f", "s", "d"}[g.next(4)]
	if col == "i" && g.next(3) == 0 {
		return col, g.constFor("f")
	}
	return col, g.constFor(col)
}

func (g *predGen) pred(depth int) string {
	choice := g.next(10)
	if depth >= 3 {
		choice %= 6
	}
	switch choice {
	case 0, 1:
		col, c := g.operand()
		op := cmpOps[g.next(len(cmpOps))]
		if g.next(4) == 0 {
			return c + " " + op + " " + col
		}
		return col + " " + op + " " + c
	case 2:
		col := []string{"i", "f", "s", "d"}[g.next(4)]
		if g.next(2) == 0 {
			return col + " IS NULL"
		}
		return col + " IS NOT NULL"
	case 3:
		not := ""
		if g.next(3) == 0 {
			not = "NOT "
		}
		return "s " + not + "LIKE " + likePats[g.next(len(likePats))]
	case 4:
		col, c := g.operand()
		items := []string{c}
		for n := g.next(3); n > 0; n-- {
			items = append(items, g.constFor(col))
		}
		not := ""
		if g.next(3) == 0 {
			not = "NOT "
		}
		return col + " " + not + "IN (" + strings.Join(items, ", ") + ")"
	case 5:
		return "(i + " + intConsts[g.next(3)] + ") " + cmpOps[g.next(len(cmpOps))] + " " + intConsts[g.next(len(intConsts))]
	case 6:
		return "NOT (" + g.pred(depth+1) + ")"
	case 7, 8:
		return "(" + g.pred(depth+1) + ") AND (" + g.pred(depth+1) + ")"
	default:
		return "(" + g.pred(depth+1) + ") OR (" + g.pred(depth+1) + ")"
	}
}

// ids runs sql and returns its first column as a sorted multiset.
func ids(t *testing.T, s *Server, sql string) []int64 {
	t.Helper()
	res, err := s.Query(sql, nil)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].Int()
	}
	slices.Sort(out)
	return out
}

// pushedIDs runs a pushed statement on the member with params and returns
// the id column's multiset.
func pushedIDs(t *testing.T, member *Server, rq *algebra.RemoteQuery, sql string, params map[string]sqltypes.Value) []int64 {
	t.Helper()
	pos := slices.IndexFunc(rq.Cols, func(c algebra.OutCol) bool { return c.Name == "id" })
	if pos < 0 {
		t.Fatalf("pushed statement does not return id: %s", rq.SQL)
	}
	res, err := member.Query(sql, params)
	if err != nil {
		t.Fatalf("member: %s: %v", sql, err)
	}
	out := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[pos].Int()
	}
	slices.Sort(out)
	return out
}

// FuzzDecoderRoundTrip checks the decoder end to end at every dialect level:
// the shipped text re-parses, and the head's answer, the shipped text run
// with its binds on the member, the reported literal text run on its own,
// and the predicate evaluated on a native copy of the table agree.
func FuzzDecoderRoundTrip(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 3, 4, 1},             // i > 9007199254740993
		{0, 0, 1, 6, 0, 1},             // i = NULL
		{4, 0, 1, 3, 2, 4, 6, 1},       // i IN (9007199254740993, 9007199254740992, NULL)
		{3, 1, 0},                      // s LIKE 'a%'
		{3, 0, 5},                      // s NOT LIKE 'b[%]c'
		{7, 0, 0, 1, 1, 2, 1, 2, 3, 1}, // (i < 3) AND (d IS NOT NULL)
		{9, 6, 0, 3, 3, 0, 2, 1},       // (NOT (d = '2000-01-01')) OR (0.25 = i)
		{0, 3, 1, 1, 0},                // '1996-02-29' <> d
		{5, 1, 2, 3},                   // (i + 3) < 9007199254740993
		{2, 1},                         // f IS NULL
		{1, 2, 2, 0, 0},                // 'it''s' = s
		{0, 1, 3, 3, 0},                // 1000.125 <= f
	} {
		f.Add(seed)
	}
	fx := roundTripServers()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &predGen{data: data}
		pred := g.pred(0)
		want := ids(t, fx.head, "SELECT id FROM t WHERE "+pred)
		for _, lv := range roundTripLevels {
			sql := fmt.Sprintf("SELECT id FROM %s.fed.dbo.t WHERE %s", lv.server, pred)
			got := ids(t, fx.head, sql)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: head answer %v, native %v", sql, got, want)
			}
			plan, _, _, err := fx.head.Plan(sql)
			if err != nil {
				t.Fatal(err)
			}
			rq := findRemoteQuery(plan)
			if rq == nil {
				continue // nothing pushed: the predicate stays on the head
			}
			if !lv.caps().Profile.Params && len(rq.Binds) > 0 {
				t.Fatalf("%s: %d binds under a dialect without parameters", lv.server, len(rq.Binds))
			}
			literal := rq.LiteralSQL()
			for _, text := range []string{rq.SQL, literal} {
				if _, err := parser.Parse(text); err != nil {
					t.Fatalf("%s: shipped text does not re-parse: %v\n%s", lv.server, err, text)
				}
			}
			params := map[string]sqltypes.Value{}
			for _, b := range rq.Binds {
				params[b.Name] = b.Val
			}
			shipped := pushedIDs(t, fx.member, rq, rq.SQL, params)
			verbatim := pushedIDs(t, fx.member, rq, literal, nil)
			if !slices.Equal(shipped, verbatim) {
				t.Fatalf("%s: shipped text with binds %v, literal text %v\n%s\n%s", lv.server, shipped, verbatim, rq.SQL, literal)
			}
			// When the whole predicate was pushed, the member's answer is
			// the statement's.
			if !strings.Contains(plan.String(), "Filter(") && !slices.Equal(shipped, want) {
				t.Fatalf("%s: member answer %v, native %v\n%s", lv.server, shipped, want, plan)
			}
		}
	})
}
