package telemetry

import (
	"sync"
	"testing"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/sqltypes"
)

func TestOpStatsCounters(t *testing.T) {
	var s OpStats
	s.RecordOpen(time.Millisecond)
	s.RecordNextBatch(time.Millisecond, 1)
	s.RecordNextBatch(time.Millisecond, 1)
	s.RecordNextBatch(time.Millisecond, 0) // EOF
	if s.Opens() != 1 || s.Nexts() != 3 || s.ActualRows() != 2 {
		t.Errorf("opens/nexts/rows = %d/%d/%d", s.Opens(), s.Nexts(), s.ActualRows())
	}
	if s.WallTime() != 4*time.Millisecond {
		t.Errorf("wall = %v", s.WallTime())
	}
}

func TestCollectorNilSafety(t *testing.T) {
	var c *Collector
	// Every read/record on a nil collector is a no-op, not a panic.
	c.RecordPhase(PhaseParse, time.Second)
	c.RecordRemoteSQL("s", "q")
	c.CaptureRemoteSQL(nil)
	c.ObserveCall(&netsim.Link{}, 1, 1, false, 0)
	if c.Spans() != nil || c.RemoteSQL() != nil || c.Ops() != nil || c.Lookup(nil) != nil || c.Links() != nil || c.Collecting() {
		t.Error("nil collector returned data")
	}
}

// TestCollectorDetailedLayerGate: without the detailed layer the record
// keeps its phases and link accounting but hands out no operator counters,
// spans or remote SQL.
func TestCollectorDetailedLayerGate(t *testing.T) {
	c := NewCollector(false, nil, nil)
	c.RecordPhase(PhaseExecute, time.Millisecond)
	c.RecordRemoteSQL("s", "q")
	if c.OpStats(algebra.NewNode(&algebra.EmptyScan{})) != nil || c.Spans() != nil || len(c.RemoteSQL()) != 0 {
		t.Error("detailed layer recorded with collection off")
	}
	if n := c.Counts(); !n.Ran[PhaseExecute] || n.Phases[PhaseExecute] != time.Millisecond {
		t.Errorf("phase slot = %v/%v", n.Ran[PhaseExecute], n.Phases[PhaseExecute])
	}
}

func TestCollectorOpStatsIdentity(t *testing.T) {
	c := NewCollector(true, nil, nil)
	n := algebra.NewNode(&algebra.EmptyScan{})
	a, b := c.OpStats(n), c.OpStats(n)
	if a != b {
		t.Error("OpStats not stable per node")
	}
	if c.Lookup(n) != a {
		t.Error("Lookup disagrees with OpStats")
	}
}

// TestCollectorSpansInPipelineOrder: spans come back one per phase reached,
// in pipeline order, whatever order they were recorded in.
func TestCollectorSpansInPipelineOrder(t *testing.T) {
	c := NewCollector(true, nil, nil)
	c.RecordPhase(PhaseSerialize, 3)
	c.RecordPhase(PhaseExecute, 2)
	c.RecordPhase(PhaseParse, 1)
	got := c.Spans()
	want := []Span{{"parse", 1}, {"execute", 2}, {"serialize", 3}}
	if len(got) != len(want) {
		t.Fatalf("spans = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// sinkCalls is a CallSink tallying what it was handed per server.
type sinkCalls map[string]int

func (s sinkCalls) RemoteCall(server string, rows, bytes int, fault bool, d time.Duration) {
	s[server]++
}

func TestCollectorLinkAttribution(t *testing.T) {
	la, lb := &netsim.Link{}, &netsim.Link{}
	meter := netsim.NewMeter()
	meter.Register("beta", la)
	meter.Register("alpha", lb)
	sink := sinkCalls{}
	c := NewCollector(false, meter, sink)
	c.ObserveCall(la, 10, 100, false, 2*time.Millisecond)
	c.ObserveCall(la, 0, 0, true, time.Millisecond) // fault: call counted, no payload
	c.ObserveCall(lb, 5, 50, false, time.Millisecond)
	c.RecordRetry("beta")
	c.RecordRetry("beta")
	c.RecordTrip("alpha")
	snap := c.Links()
	if len(snap) != 2 || snap[0].Server != "alpha" || snap[1].Server != "beta" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if b := snap[1]; b.Calls != 2 || b.Rows != 10 || b.Bytes != 100 || b.Faults != 1 || b.Retries != 2 {
		t.Errorf("beta = %+v", b)
	}
	if snap[1].CallTime != 3*time.Millisecond {
		t.Errorf("beta call time = %v", snap[1].CallTime)
	}
	if a := snap[0]; a.Calls != 1 || a.BreakerTrips != 1 {
		t.Errorf("alpha = %+v", a)
	}
	if n := c.Counts(); n.Retries != 2 || n.BreakerTrips != 1 {
		t.Errorf("statement totals: %d retries, %d trips", n.Retries, n.BreakerTrips)
	}
	if sink["beta"] != 2 || sink["alpha"] != 1 {
		t.Errorf("sink saw %v, want every call under its server", sink)
	}
}

func TestCollectorUnresolvedLinkName(t *testing.T) {
	c := NewCollector(false, nil, nil)
	c.ObserveCall(&netsim.Link{}, 1, 1, false, 0)
	snap := c.Links()
	if len(snap) != 1 || snap[0].Server != "?" {
		t.Errorf("unresolved link filed under %+v", snap)
	}
}

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	r.Record(&QueryStats{QueryText: "q1", Rows: 10, Elapsed: time.Millisecond,
		Links: []LinkStats{{Server: "s", Calls: 2, Bytes: 100}}, Retries: 1})
	r.Record(&QueryStats{QueryText: "q1", Rows: 20, Elapsed: time.Millisecond,
		Links: []LinkStats{{Server: "s", Calls: 4, Bytes: 300}}})
	r.Record(&QueryStats{QueryText: "q2", Rows: 1})
	r.Record(&QueryStats{QueryText: ""}) // unnamed executions stay out
	rows := r.Rows()
	if len(rows) != 2 || rows[0].QueryText != "q1" {
		t.Fatalf("rows = %+v", rows)
	}
	q1 := rows[0]
	if q1.ExecutionCount != 2 || q1.TotalRows != 30 || q1.LastRows != 20 {
		t.Errorf("q1 = %+v", q1)
	}
	if q1.TotalLinkBytes != 400 || q1.LastLinkBytes != 300 || q1.TotalLinkCalls != 6 || q1.TotalRetries != 1 {
		t.Errorf("q1 link aggregates = %+v", q1)
	}
	r.Reset()
	if len(r.Rows()) != 0 {
		t.Error("Reset left rows")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(&QueryStats{QueryText: "q", Rows: 1})
			}
		}()
	}
	wg.Wait()
	if rows := r.Rows(); rows[0].ExecutionCount != 800 {
		t.Errorf("count = %d, want 800", rows[0].ExecutionCount)
	}
}

func TestCaptureRemoteSQL(t *testing.T) {
	c := NewCollector(true, nil, nil)
	inner := algebra.NewNode(&algebra.RemoteQuery{Server: "r0", SQL: "SELECT 1"})
	root := algebra.NewNode(&algebra.EmptyScan{}, inner)
	c.CaptureRemoteSQL(root)
	got := c.RemoteSQL()
	if len(got) != 1 || got[0].Server != "r0" || got[0].Text != "SELECT 1" {
		t.Errorf("remote SQL = %+v", got)
	}
}

// TestCaptureRemoteSQLWritesBindsBack: a pushed statement with lifted
// constants is recorded in its literal form, which runs on its own; a
// statement parameter, a string literal and a quoted identifier that look
// like a bind stay as they are.
func TestCaptureRemoteSQLWritesBindsBack(t *testing.T) {
	c := NewCollector(true, nil, nil)
	rq := &algebra.RemoteQuery{
		Server: "r0",
		SQL:    "SELECT t0.[@__k1] AS c1 FROM t AS t0 WHERE ((t0.a >= @__k1) AND (t0.b LIKE '@__k0%') AND (t0.c IN (@__k0, @p)) AND (t0.d < @__k10))",
		Binds: []algebra.Bind{
			{Name: "__k0", Val: sqltypes.NewString("it's"), Lit: "'it''s'"},
			{Name: "__k1", Val: sqltypes.NewInt(1 << 60), Lit: "1152921504606846976"},
		},
	}
	c.CaptureRemoteSQL(algebra.NewNode(rq))
	want := "SELECT t0.[@__k1] AS c1 FROM t AS t0 WHERE ((t0.a >= 1152921504606846976) AND (t0.b LIKE '@__k0%') AND (t0.c IN ('it''s', @p)) AND (t0.d < @__k10))"
	if got := c.RemoteSQL(); len(got) != 1 || got[0].Text != want {
		t.Errorf("remote SQL = %+v\nwant %q", got, want)
	}
}
