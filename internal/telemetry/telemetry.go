// Package telemetry is the query-plan observability layer: per-operator
// runtime counters (the analogue of SQL Server's SET STATISTICS PROFILE /
// actual execution plans), per-linked-server link metrics (the Profiler
// remote-events view of a distributed query), phase spans for the statement
// pipeline (parse → bind → optimize → decode → execute), and a DMV-style
// aggregate query-stats registry modeled on sys.dm_exec_query_stats.
//
// The paper's central claim is that the DHQP cost model minimizes network
// traffic; this package is what makes the claim checkable: every execution
// can report estimated vs. actual cardinality per operator and calls/bytes
// per linked server, and repeated executions aggregate into the registry.
//
// Collection is per-execution: the engine hands the executor a Collector
// (gated by engine.Config.CollectStats so the default hot path stays
// clean) and a LinkTracker rides the statement context into netsim.Link.Call via
// netsim.WithObserver, so concurrent statements never pollute each other's
// link accounting.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/algebra"
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

// RecordNext counts one Next call and its inclusive wall time; emitted
// reports whether the call produced a row (EOF and errors do not).
func (s *OpStats) RecordNext(d time.Duration, emitted bool) {
	s.nexts.Add(1)
	if emitted {
		s.rows.Add(1)
	}
	s.wallNS.Add(int64(d))
}

// RecordNextBatch counts one vectorized NextBatch call, its inclusive wall
// time, and the rows the batch delivered. One call replaces up to a
// batch-size worth of RecordNext calls while keeping ActualRows exact: a
// fill of n rows adds exactly n, and an EOF or error fill adds none.
func (s *OpStats) RecordNextBatch(d time.Duration, rows int) {
	s.nexts.Add(1)
	s.rows.Add(int64(rows))
	s.wallNS.Add(int64(d))
}

// Opens reports how many times the operator was (re-)opened.
func (s *OpStats) Opens() int64 { return s.opens.Load() }

// Nexts reports how many Next calls the operator served.
func (s *OpStats) Nexts() int64 { return s.nexts.Load() }

// ActualRows reports how many rows the operator returned to its parent.
// Rows a retried remote call re-shipped and discarded are not counted —
// only rows actually surfaced up the tree.
func (s *OpStats) ActualRows() int64 { return s.rows.Load() }

// WallTime reports the cumulative wall time spent inside the operator's
// Open and Next calls, children included (the inclusive elapsed time SQL
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

// Collector gathers one statement execution's telemetry. The per-operator
// map is populated while the iterator tree is built (single-goroutine) and
// only read afterwards; the OpStats values themselves are atomic, so
// parallel branches record freely. A nil *Collector is valid everywhere and
// records nothing, which is what keeps the collection-off path clean.
type Collector struct {
	mu     sync.Mutex
	ops    map[*algebra.Node]*OpStats
	spans  []Span
	remote []RemoteText
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{ops: map[*algebra.Node]*OpStats{}}
}

// OpStats returns (creating on first use) the counters for a plan node;
// nil from a nil collector.
func (c *Collector) OpStats(n *algebra.Node) *OpStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.ops[n]
	if !ok {
		s = &OpStats{}
		c.ops[n] = s
	}
	return s
}

// Lookup returns the counters recorded for a plan node, or nil.
func (c *Collector) Lookup(n *algebra.Node) *OpStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[n]
}

// Ops snapshots the per-operator counter map.
func (c *Collector) Ops() map[*algebra.Node]*OpStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[*algebra.Node]*OpStats, len(c.ops))
	for n, s := range c.ops {
		out[n] = s
	}
	return out
}

// RecordSpan appends one named phase timing. Nil-safe.
func (c *Collector) RecordSpan(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, Span{Name: name, Elapsed: d})
	c.mu.Unlock()
}

// Spans returns the recorded phase timings in record order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// RecordRemoteSQL records one decoded statement shipped to a linked server.
// Nil-safe.
func (c *Collector) RecordRemoteSQL(server, text string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.remote = append(c.remote, RemoteText{Server: server, Text: text})
	c.mu.Unlock()
}

// RemoteSQL returns the decoded remote statements in record order.
func (c *Collector) RemoteSQL() []RemoteText {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RemoteText, len(c.remote))
	copy(out, c.remote)
	return out
}

// CaptureRemoteSQL walks a physical plan and records every decoded remote
// statement and provider command (the "decode" phase product: what text
// will cross each link at execution time). Nil-safe on the collector.
func (c *Collector) CaptureRemoteSQL(plan *algebra.Node) {
	if c == nil || plan == nil {
		return
	}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		switch op := n.Op.(type) {
		case *algebra.RemoteQuery:
			c.RecordRemoteSQL(op.Server, op.SQL)
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
