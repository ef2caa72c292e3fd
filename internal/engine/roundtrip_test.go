package engine

import (
	"math"
	"strings"
	"testing"

	"dhqp/internal/cost"
	"dhqp/internal/netsim"
)

// TestRemoteRoundTripsMatchCost: a pushed statement costs what the cost
// model charges it. cost.RemoteQuery prices one round trip — one latency
// plus the result's transfer — and a statement whose answer fits one fetch
// makes exactly that one Link.Call, the statement's text riding the call
// that brings its rows back. An answer that spans k fetches makes k calls.
func TestRemoteRoundTripsMatchCost(t *testing.T) {
	local, _, link := linkTwo(t)
	const oneFetch = `SELECT c_nation, COUNT(*) AS n FROM remote0.salesdb.dbo.customer GROUP BY c_nation`
	const fortyRows = `SELECT c_id, COUNT(*) AS n FROM remote0.salesdb.dbo.customer GROUP BY c_id`
	for _, sql := range []string{oneFetch, fortyRows} {
		plan, _, _, err := local.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		if s := plan.String(); !strings.Contains(s, "RemoteQuery") || strings.Contains(s, "Agg") {
			t.Fatalf("the aggregate was not pushed:\n%s", s)
		}
		q(t, local, sql) // compile: schema and statistics reads are not the statement's
	}

	link.Reset()
	res := q(t, local, oneFetch)
	st := link.Stats()
	if len(res.Rows) != 3 || st.Calls != 1 || st.Rows != 3 {
		t.Fatalf("one-fetch answer: %d rows over %+v, want 3 rows in 1 call", len(res.Rows), st)
	}
	m := &cost.Model{LinkFor: func(string) *netsim.Link { return link }}
	charged := m.RemoteQuery("remote0", 0, float64(st.Rows), float64(st.Bytes)/float64(st.Rows))
	if spent := float64(st.VirtualTime) / 1e3; math.Abs(spent-charged) > 0.01 {
		t.Errorf("the link spent %.3f µs, cost.RemoteQuery charges %.3f µs for the same rows and bytes", spent, charged)
	}

	for _, tc := range []struct{ batch, calls int }{{0, 1}, {16, 3}, {8, 5}, {4, 10}, {3, 14}} {
		local.Configure(func(c *Config) { c.BatchSize = tc.batch })
		link.Reset()
		res := q(t, local, fortyRows)
		if st := link.Stats(); len(res.Rows) != 40 || st.Calls != int64(tc.calls) || st.Rows != 40 {
			t.Errorf("batch size %d: %d rows over %+v, want 40 rows in %d calls", tc.batch, len(res.Rows), st, tc.calls)
		}
	}
}
