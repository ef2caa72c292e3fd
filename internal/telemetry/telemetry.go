// Package telemetry is the query-plan observability layer: per-operator
// runtime counters (the analogue of SQL Server's SET STATISTICS PROFILE /
// actual execution plans), per-linked-server link metrics (the Profiler
// remote-events view of a distributed query), phase spans for the statement
// pipeline (parse → bind → optimize → decode → execute → serialize), and a
// DMV-style aggregate query-stats registry modeled on sys.dm_exec_query_stats.
//
// The paper's central claim is that the DHQP cost model minimizes network
// traffic; this package is what makes the claim checkable: every execution
// can report estimated vs. actual cardinality per operator and calls/bytes
// per linked server, and repeated executions aggregate into the registry.
//
// Every statement records into one Collector, its per-statement record. It
// is the netsim.CallObserver the statement context carries
// (netsim.WithObserver), so concurrent statements never pollute each other's
// link accounting on shared links, and it is the executor's one accounting
// handle: phases, retries, breaker trips, skipped partitions, backoff waits,
// root batches and startup filters each land there once. The engine folds
// the record into its server-wide views when the statement ends. The
// detailed layer — operator counters, phase spans and remote SQL — records
// only when engine.Config.CollectStats or EXPLAIN ANALYZE asks for it, so
// the default hot path stays clean.
package telemetry

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
)

// OpStats is one plan operator's actual runtime counters for one execution.
// All fields are atomics: parallel exchange branches drive sibling operators
// concurrently, and a re-opened operator (loop-join inner, spool rescan)
// keeps accumulating into the same instance.
type OpStats struct {
	opens  atomic.Int64
	nexts  atomic.Int64
	rows   atomic.Int64
	wallNS atomic.Int64
	pruned atomic.Int64
}

// RecordPruned counts one Open of a startup filter whose predicate was
// false, so its subtree stayed closed. Nil-safe: the filter holds no stats
// on uninstrumented executions.
func (s *OpStats) RecordPruned() {
	if s != nil {
		s.pruned.Add(1)
	}
}

// Pruned reports how many of the operator's opens a false startup
// predicate cut short.
func (s *OpStats) Pruned() int64 { return s.pruned.Load() }

// RecordOpen counts one Open call and its inclusive wall time.
func (s *OpStats) RecordOpen(d time.Duration) {
	s.opens.Add(1)
	s.wallNS.Add(int64(d))
}

// RecordNextBatch counts one NextBatch call, its inclusive wall time, and
// the rows the batch delivered: a fill of n rows adds exactly n to
// ActualRows, and an EOF or error fill adds none.
func (s *OpStats) RecordNextBatch(d time.Duration, rows int) {
	s.nexts.Add(1)
	s.rows.Add(int64(rows))
	s.wallNS.Add(int64(d))
}

// Opens reports how many times the operator was (re-)opened.
func (s *OpStats) Opens() int64 { return s.opens.Load() }

// Nexts reports how many NextBatch calls the operator served.
func (s *OpStats) Nexts() int64 { return s.nexts.Load() }

// ActualRows reports how many rows the operator returned to its parent.
// Rows a retried remote call re-shipped and discarded are not counted —
// only rows actually surfaced up the tree.
func (s *OpStats) ActualRows() int64 { return s.rows.Load() }

// WallTime reports the cumulative wall time spent inside the operator's
// Open and NextBatch calls, children included (the inclusive elapsed time SQL
// Server actual plans report per operator).
func (s *OpStats) WallTime() time.Duration { return time.Duration(s.wallNS.Load()) }

// Span is one timed phase of statement processing (showplan's analogue of
// the compile-time and run-time breakdown).
type Span struct {
	Name    string
	Elapsed time.Duration
}

// RemoteText is one decoded SQL (or provider-language) text shipped to a
// linked server during the statement — the analogue of SQL Server
// Profiler's remote-query events.
type RemoteText struct {
	Server string
	Text   string
}

// LinkStats is one linked server's network accounting for one execution:
// the traffic that actually crossed its link plus the fault-handling events
// (retries absorbed by the retry ladder, circuit-breaker trips) attributed
// to the server.
type LinkStats struct {
	Server  string
	Calls   int64
	Rows    int64
	Bytes   int64
	Faults  int64
	Retries int64
	// BreakerTrips counts the closed→open transitions of the server's
	// circuit breaker that this execution's failures caused.
	BreakerTrips int64
	// CallTime is the summed simulated duration of the server's calls
	// (overlapping under parallel exchange — a busy total, not elapsed).
	CallTime time.Duration
}

// Phase is one stage of the statement pipeline. A statement records each
// phase it reaches once, into the phase's fixed slot.
type Phase int

// The pipeline phases, in pipeline order.
const (
	PhaseParse Phase = iota
	PhaseBind
	PhaseOptimize
	PhaseDecode
	PhaseExecute
	PhaseSerialize
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "bind", "optimize", "decode", "execute", "serialize"}

// String names the phase the way spans and the phase histogram label it.
func (p Phase) String() string { return phaseNames[p] }

// CallSink receives every remote call a statement makes, already resolved
// to its server name: the engine's server-wide per-linked-server
// instruments, which keep per-call resolution.
type CallSink interface {
	RemoteCall(server string, rows, bytes int, fault bool, d time.Duration)
}

// Counts is the part of a statement's record the engine folds into its
// server-wide counters when the statement ends.
type Counts struct {
	Phases        [NumPhases]time.Duration
	Ran           [NumPhases]bool // which Phases the statement reached
	Retries       int64           // retried remote attempts
	BreakerTrips  int64           // breakers this statement's failures opened
	Batches       int64           // vectorized batches drained at the root
	BatchRows     int64           // live rows in those batches
	RowsRead      int64           // rows local scans and index ranges filled
	StartupOpened int64           // startup filters that opened their subtree
	StartupPruned int64           // startup filters that kept it closed
	Backoffs      []time.Duration // each wait between retry attempts
}

// Collector is one statement execution's record. Parallel exchange branches
// record into the shared instance, so everything is guarded by one mutex;
// the OpStats values themselves are atomic and record without it. A nil
// *Collector is valid everywhere and records nothing (executor unit tests
// run without one).
type Collector struct {
	meter  *netsim.Meter // names each link
	sink   CallSink      // nil: no server-wide link instruments
	detail *detail       // nil: the detailed layer is off

	mu      sync.Mutex
	n       Counts
	linkIdx map[*netsim.Link]int // each link's entry in links, resolved once
	links   []LinkStats
	skipped []string
}

// detail is the record's detailed layer, allocated only when it is on.
type detail struct {
	ops    map[*algebra.Node]*OpStats
	remote []RemoteText
}

// NewCollector returns an empty record. collect turns on the detailed
// layer; meter names each link by its registration — a nil meter, or an
// unregistered link, files its traffic under "?"; sink, when non-nil, also
// receives every call.
func NewCollector(collect bool, meter *netsim.Meter, sink CallSink) *Collector {
	c := &Collector{meter: meter, sink: sink}
	if collect {
		c.detail = &detail{ops: map[*algebra.Node]*OpStats{}}
	}
	return c
}

// Collecting reports whether the detailed layer is on: the executor shims
// operators only then.
func (c *Collector) Collecting() bool { return c != nil && c.detail != nil }

// OpStats returns (creating on first use) the counters for a plan node;
// nil unless the detailed layer is on.
func (c *Collector) OpStats(n *algebra.Node) *OpStats {
	if !c.Collecting() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.detail.ops[n]
	if !ok {
		s = &OpStats{}
		c.detail.ops[n] = s
	}
	return s
}

// Lookup returns the counters recorded for a plan node, or nil.
func (c *Collector) Lookup(n *algebra.Node) *OpStats {
	if !c.Collecting() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detail.ops[n]
}

// Ops snapshots the per-operator counter map.
func (c *Collector) Ops() map[*algebra.Node]*OpStats {
	if !c.Collecting() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[*algebra.Node]*OpStats, len(c.detail.ops))
	for n, s := range c.detail.ops {
		out[n] = s
	}
	return out
}

// RecordPhase records the time the statement spent in one pipeline phase.
func (c *Collector) RecordPhase(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.Phases[p], c.n.Ran[p] = d, true
	c.mu.Unlock()
}

// Spans returns the phases the statement reached, in pipeline order, when
// the detailed layer is on; nil otherwise.
func (c *Collector) Spans() []Span {
	if !c.Collecting() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	for p, ran := range c.n.Ran {
		if ran {
			out = append(out, Span{Name: Phase(p).String(), Elapsed: c.n.Phases[p]})
		}
	}
	return out
}

// ObserveCall implements netsim.CallObserver: the call lands in its
// server's entry — the link is named on its first call — and in the sink.
func (c *Collector) ObserveCall(l *netsim.Link, rows, bytes int, fault bool, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	i, ok := c.linkIdx[l]
	if !ok {
		name := ""
		if c.meter != nil {
			name = c.meter.NameOf(l)
		}
		if name == "" {
			name = "?"
		}
		i = c.linkLocked(name)
		if c.linkIdx == nil {
			c.linkIdx = map[*netsim.Link]int{}
		}
		c.linkIdx[l] = i
	}
	s := &c.links[i]
	s.Calls++
	s.CallTime += d
	if fault {
		s.Faults++
	} else {
		s.Rows += int64(rows)
		s.Bytes += int64(bytes)
	}
	server := s.Server
	c.mu.Unlock()
	if c.sink != nil {
		c.sink.RemoteCall(server, rows, bytes, fault, d)
	}
}

// linkLocked returns the index of the server's entry, appending it on first
// use. Callers hold c.mu.
func (c *Collector) linkLocked(server string) int {
	for i := range c.links {
		if c.links[i].Server == server {
			return i
		}
	}
	c.links = append(c.links, LinkStats{Server: server})
	return len(c.links) - 1
}

// RecordRetry counts one retried remote call attempt against a server.
func (c *Collector) RecordRetry(server string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.Retries++
	c.links[c.linkLocked(server)].Retries++
	c.mu.Unlock()
}

// RecordTrip counts a circuit-breaker trip this statement's failure caused.
func (c *Collector) RecordTrip(server string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.BreakerTrips++
	c.links[c.linkLocked(server)].BreakerTrips++
	c.mu.Unlock()
}

// RecordSkip records a partition skipped under partial-results execution.
func (c *Collector) RecordSkip(label string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.skipped = append(c.skipped, label)
	c.mu.Unlock()
}

// RecordBackoff records one wait between retry attempts.
func (c *Collector) RecordBackoff(d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.Backoffs = append(c.n.Backoffs, d)
	c.mu.Unlock()
}

// RecordBatch counts one batch drained at the plan root and its live rows.
func (c *Collector) RecordBatch(rows int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.Batches++
	c.n.BatchRows += int64(rows)
	c.mu.Unlock()
}

// RecordRowsRead counts rows a local scan or index range filled.
func (c *Collector) RecordRowsRead(rows int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n.RowsRead += int64(rows)
	c.mu.Unlock()
}

// RecordStartup counts one startup filter's verdict: opened its subtree, or
// kept it closed.
func (c *Collector) RecordStartup(opened bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if opened {
		c.n.StartupOpened++
	} else {
		c.n.StartupPruned++
	}
	c.mu.Unlock()
}

// Counts returns the statement's tallies.
func (c *Collector) Counts() Counts {
	if c == nil {
		return Counts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Links returns the per-server accounting sorted by server name.
func (c *Collector) Links() []LinkStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.links) == 0 {
		return nil
	}
	out := append([]LinkStats(nil), c.links...)
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// Skipped lists the skipped partitions, deduplicated and sorted (a server
// can be skipped by several fan-out branches).
func (c *Collector) Skipped() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.skipped) == 0 {
		return nil
	}
	out := append([]string(nil), c.skipped...)
	sort.Strings(out)
	return slices.Compact(out)
}

// RecordRemoteSQL records one decoded statement shipped to a linked server
// when the detailed layer is on.
func (c *Collector) RecordRemoteSQL(server, text string) {
	if !c.Collecting() {
		return
	}
	c.mu.Lock()
	c.detail.remote = append(c.detail.remote, RemoteText{Server: server, Text: text})
	c.mu.Unlock()
}

// RemoteSQL returns the decoded remote statements in record order.
func (c *Collector) RemoteSQL() []RemoteText {
	if !c.Collecting() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RemoteText{}, c.detail.remote...)
}

// CaptureRemoteSQL walks a physical plan and records every decoded remote
// statement and provider command (the "decode" phase product: what text
// will cross each link at execution time) when the detailed layer is on. A
// pushed statement is recorded in its literal form, its binds written back
// in place, so the recorded text runs on its own.
func (c *Collector) CaptureRemoteSQL(plan *algebra.Node) {
	if !c.Collecting() || plan == nil {
		return
	}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		switch op := n.Op.(type) {
		case *algebra.RemoteQuery:
			c.RecordRemoteSQL(op.Server, op.LiteralSQL())
		case *algebra.ProviderCommand:
			if op.Src.IsRemote() {
				c.RecordRemoteSQL(op.Src.Server, op.Src.Query)
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(plan)
}
