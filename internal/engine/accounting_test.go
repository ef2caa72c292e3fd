package engine

import (
	"context"
	"testing"
	"time"

	"dhqp/internal/circuit"
	"dhqp/internal/netsim"
	"dhqp/internal/telemetry"
)

// counterValue reads one engine counter off the server's metrics registry;
// a label value selects one member of a labelled family.
func counterValue(s *Server, name string, label ...string) int64 {
	if len(label) == 0 {
		return s.Metrics().Counter(name, "").Value()
	}
	return s.Metrics().CounterVec(name, "", "").With(label[0]).Value()
}

// pipelinePhases are the phase histogram's labels, in pipeline order.
var pipelinePhases = []string{"parse", "bind", "optimize", "decode", "execute", "serialize"}

// surfaces is every server-wide view of statement accounting at one instant.
type surfaces struct {
	link, metric      [][4]int64 // per member: calls, rows, bytes, faults
	retries, trips    int64      // dhqp_exec_retries_total, dhqp_breaker_trips_total
	execs, regRetries int64      // the query's registry row
	phases            map[string]int64
}

func readSurfaces(s *Server, links []*netsim.Link, query string) surfaces {
	v := surfaces{
		retries: counterValue(s, "dhqp_exec_retries_total"),
		trips:   counterValue(s, "dhqp_breaker_trips_total"),
		phases:  map[string]int64{},
	}
	for i, l := range links {
		st, name := l.Stats(), "server"+itoa(i+1)
		v.link = append(v.link, [4]int64{st.Calls, st.Rows, st.Bytes, st.Faults})
		v.metric = append(v.metric, [4]int64{
			counterValue(s, "dhqp_remote_calls_total", name), counterValue(s, "dhqp_remote_rows_total", name),
			counterValue(s, "dhqp_remote_bytes_total", name), counterValue(s, "dhqp_remote_faults_total", name)})
	}
	for _, row := range s.QueryStats() {
		if row.QueryText == query {
			v.execs, v.regRetries = row.ExecutionCount, row.TotalRetries
		}
	}
	hv := s.Metrics().HistogramVec("dhqp_statement_phase_seconds", "", "", nil)
	for _, p := range pipelinePhases {
		v.phases[p] = hv.With(p).Count()
	}
	return v
}

// TestStatementAccountingParity runs one statement at a time and checks
// that every surface tells the same story about it: the statement's own
// per-link table, the links' counters, the per-server metrics, the retry
// totals of Result, registry and metrics, and the phase histogram against
// the phases the statement reports. Transient faults make the retry
// columns non-trivial; a statement that exhausts its retries must still
// count them.
func TestStatementAccountingParity(t *testing.T) {
	head, links := buildFanOut(t, 3, 500)
	head.SetCollectStats(true) // Result.Stats.Spans names the phases each statement reached
	const query = `SELECT y, amount FROM all_sales`

	checkPhases := func(what string, before, after surfaces, res *Result) {
		t.Helper()
		reached := map[string]bool{}
		for _, sp := range res.Stats.Spans {
			reached[sp.Name] = true
		}
		for name, n := range after.phases {
			want := int64(0)
			if reached[name] {
				want = 1
			}
			if d := n - before.phases[name]; d != want {
				t.Errorf("%s: phase %s gained %d observations, want %d (spans %+v)", what, name, d, want, res.Stats.Spans)
			}
		}
	}
	checkLinks := func(what string, before, after surfaces, res *Result) {
		t.Helper()
		byServer := map[string]telemetry.LinkStats{}
		var retries, trips int64
		for _, l := range res.Stats.Links {
			byServer[l.Server] = l
			retries += l.Retries
			trips += l.BreakerTrips
		}
		for i := range links {
			name := "server" + itoa(i+1)
			st := byServer[name]
			own := [4]int64{st.Calls, st.Rows, st.Bytes, st.Faults}
			var link, metric [4]int64
			for k := range own {
				link[k] = after.link[i][k] - before.link[i][k]
				metric[k] = after.metric[i][k] - before.metric[i][k]
			}
			if own != link || own != metric {
				t.Errorf("%s %s calls/rows/bytes/faults: statement %v, link %v, metrics %v", what, name, own, link, metric)
			}
		}
		if res.Retries != retries || res.Retries != after.regRetries-before.regRetries || res.Retries != after.retries-before.retries {
			t.Errorf("%s retries: Result %d, per-server sum %d, registry %d, metrics %d", what,
				res.Retries, retries, after.regRetries-before.regRetries, after.retries-before.retries)
		}
		if d := after.trips - before.trips; d != trips {
			t.Errorf("%s: dhqp_breaker_trips_total moved %d, the statement's links report %d", what, d, trips)
		}
		if d := after.execs - before.execs; d != 1 {
			t.Errorf("%s: registry execution count moved %d, want 1", what, d)
		}
	}

	// The compiling run reaches every phase once. Its compile reads remote
	// metadata outside the statement's record, so its links are not compared.
	before := readSurfaces(head, links, query)
	res := q(t, head, query)
	checkPhases("compiling run", before, readSurfaces(head, links, query), res)
	if len(res.Stats.Spans) != len(pipelinePhases) {
		t.Errorf("compiling run reached %d phases, want %d: %+v", len(res.Stats.Spans), len(pipelinePhases), res.Stats.Spans)
	}

	links[1].SetFaults(netsim.Faults{Seed: 9, TransientProb: 0.10})
	for _, dop := range []int{1, 0} {
		head.Configure(func(c *Config) { c.MaxDOP = dop })
		what := "MaxDOP=" + itoa(dop)
		before := readSurfaces(head, links, query)
		res := q(t, head, query)
		after := readSurfaces(head, links, query)
		if len(res.Rows) != 1500 {
			t.Fatalf("%s: %d rows", what, len(res.Rows))
		}
		checkLinks(what, before, after, res)
		checkPhases(what, before, after, res)
	}
	if links[1].Stats().Faults == 0 {
		t.Error("the fault plan injected nothing; the retry parity proved nothing")
	}

	// A statement that exhausts its retries: three attempts on server2, two
	// of them retries, and no result to report them in.
	head.Configure(func(c *Config) { c.MaxDOP, c.RemoteRetries, c.RetryBackoff = 1, 3, time.Microsecond })
	links[1].SetFaults(netsim.Faults{Seed: 1, TransientProb: 1})
	before = readSurfaces(head, links, query)
	if _, err := head.Query(query, nil); err == nil {
		t.Fatal("query over an always-failing link succeeded")
	}
	after := readSurfaces(head, links, query)
	if d := after.retries - before.retries; d != 2 {
		t.Errorf("failing statement moved dhqp_exec_retries_total by %d, want 2", d)
	}
	for i := range links {
		for k := 0; k < 4; k++ {
			if dl, dm := after.link[i][k]-before.link[i][k], after.metric[i][k]-before.metric[i][k]; dl != dm {
				t.Errorf("failing statement, server%d column %d: link moved %d, metrics %d", i+1, k, dl, dm)
			}
		}
	}
	if after.execs != before.execs || after.regRetries != before.regRetries {
		t.Errorf("failing statement reached the registry: %d→%d executions, %d→%d retries", before.execs, after.execs, before.regRetries, after.regRetries)
	}
	for name, n := range after.phases {
		if n != before.phases[name] {
			t.Errorf("failing cached statement observed phase %s", name)
		}
	}
}

// TestBreakerTripAccounting: a circuit-breaker trip counts once, against
// the statement whose failure caused it — whether that statement then
// fails, and whatever other statement happens to be running meanwhile.
func TestBreakerTripAccounting(t *testing.T) {
	const query = `SELECT y, amount FROM all_sales`
	setup := func(t *testing.T, threshold int, partial bool) *Server {
		head, links := buildFanOut(t, 3, 50)
		q(t, head, query) // warm plan, schema and statistics
		head.Configure(func(c *Config) {
			c.MaxDOP, c.RemoteRetries, c.RetryBackoff = 1, 2, time.Microsecond
			c.BreakerThreshold, c.BreakerCooldown = threshold, time.Hour
			c.PartialResults = partial
		})
		links[0].SetDown(true)
		return head
	}

	t.Run("failing statement", func(t *testing.T) {
		head := setup(t, 2, false)
		before := counterValue(head, "dhqp_breaker_trips_total")
		if _, err := head.Query(query, nil); err == nil {
			t.Fatal("query with a downed member succeeded")
		}
		if st := head.BreakerState("server1"); st != circuit.Open {
			t.Fatalf("breaker state = %v, want open", st)
		}
		if d := counterValue(head, "dhqp_breaker_trips_total") - before; d != 1 {
			t.Errorf("the failing statement that tripped server1 moved dhqp_breaker_trips_total by %d, want 1", d)
		}
	})

	t.Run("overlapping statements", func(t *testing.T) {
		head := setup(t, 1, true)
		head.MustExec(`CREATE TABLE loc (a INT)`)
		head.MustExec(`INSERT INTO loc VALUES (1), (2), (3)`)
		before := counterValue(head, "dhqp_breaker_trips_total")

		// The local statement is open, its first batch read, while the
		// fan-out runs.
		cur, err := head.OpenQuery(context.Background(), `SELECT a FROM loc`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Pull(); err != nil {
			t.Fatal(err)
		}
		fan, err := head.Query(query, nil)
		local, localErr := cur.Finish(nil)
		if err != nil {
			t.Fatalf("partial-results fan-out failed: %v", err)
		}
		if len(fan.Skipped) != 1 || fan.Skipped[0] != "server1" {
			t.Fatalf("fan-out skipped %v, want [server1]", fan.Skipped)
		}
		if localErr != nil {
			t.Fatal(localErr)
		}
		for _, l := range local.Stats.Links {
			if l.Server == "server1" {
				t.Errorf("the local statement was charged with the fan-out's link accounting: %+v", l)
			}
		}
		if d := counterValue(head, "dhqp_breaker_trips_total") - before; d != 1 {
			t.Errorf("one trip moved dhqp_breaker_trips_total by %d, want 1", d)
		}
	})
}
