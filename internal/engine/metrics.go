// Engine-side observability: the per-server metrics registry, the
// instrument bundle handed to the storage engine, the fold of each
// statement's record into the server-wide views, and the structured
// slow-query log.
//
// Each engine instance owns one metrics.Registry — federations run
// several engines in-process, so nothing here is package-global. The
// serving layer registers its own instruments on the same registry, so
// one /metrics scrape (or one DMV query) covers every layer.
package engine

import (
	"context"
	"encoding/json"
	"os"
	"time"

	"dhqp/internal/metrics"
	"dhqp/internal/storage"
	"dhqp/internal/telemetry"
)

// engineInstruments holds every instrument the engine layer records
// into. Built once per server; disabling metrics swaps the active
// pointer to nil, so every hook is one atomic load on the off path.
type engineInstruments struct {
	statements    *metrics.CounterVec   // by verb: select/insert/update/delete/ddl/exec
	rowsReturned  *metrics.Counter      // rows handed to clients
	planHits      *metrics.Counter      // plan-cache probes served from cache
	planMisses    *metrics.Counter      // probes that compiled
	planEvictions *metrics.Counter      // plans evicted by the LRU bound
	phaseSeconds  *metrics.HistogramVec // by phase: parse/bind/optimize/decode/execute/serialize
	stmtSeconds   *metrics.Histogram    // whole-statement latency
	slowQueries   *metrics.Counter      // statements over the slow threshold
	dmlExamined   *metrics.Counter      // rows committed UPDATE/DELETE statements read
	dmlAffected   *metrics.Counter      // rows they changed; examined ≫ affected is a scan

	linkCalls   *metrics.CounterVec   // by server
	linkRows    *metrics.CounterVec   // by server
	linkBytes   *metrics.CounterVec   // by server
	linkFaults  *metrics.CounterVec   // by server
	linkSeconds *metrics.HistogramVec // by server

	breakerTrips  *metrics.Counter // each trip once, by the statement that caused it
	retries       *metrics.Counter // retried remote attempts
	batches       *metrics.Counter // vectorized batches drained at the root
	batchRows     *metrics.Counter // live rows in those batches (rows per batch = batchRows / batches)
	rowsRead      *metrics.Counter // rows SELECTs' local scans and index ranges filled
	startupPruned *metrics.Counter // startup filters that kept their subtree closed
	startupOpened *metrics.Counter // startup filters that opened it
	waits         *metrics.WaitTable

	shardVersion  *metrics.Gauge   // current shard-map version counter
	shardMoves    *metrics.Counter // completed online shard moves
	rebalanceRows *metrics.Counter // rows copied by rebalance/split moves

	storageIns *storage.Instrumentation
}

// buildInstruments registers (get-or-create) every engine-layer
// instrument on the registry.
func buildInstruments(r *metrics.Registry) *engineInstruments {
	m := &engineInstruments{
		statements:    r.CounterVec("dhqp_statements_total", "Statements executed by verb", "verb"),
		rowsReturned:  r.Counter("dhqp_rows_returned_total", "Rows returned to clients"),
		planHits:      r.Counter("dhqp_plan_cache_hits_total", "Plan cache probe hits"),
		planMisses:    r.Counter("dhqp_plan_cache_misses_total", "Plan cache probe misses"),
		planEvictions: r.Counter("dhqp_plan_cache_evictions_total", "Plans evicted by the LRU bound"),
		phaseSeconds:  r.HistogramVec("dhqp_statement_phase_seconds", "Statement pipeline phase latency", "phase", nil),
		stmtSeconds:   r.Histogram("dhqp_statement_seconds", "Whole-statement latency", nil),
		slowQueries:   r.Counter("dhqp_slow_queries_total", "Statements over the slow-query threshold"),
		dmlExamined:   r.Counter("dhqp_dml_rows_examined_total", "Rows read by committed local UPDATE/DELETE statements"),
		dmlAffected:   r.Counter("dhqp_dml_rows_affected_total", "Rows changed by committed local UPDATE/DELETE statements"),

		linkCalls:   r.CounterVec("dhqp_remote_calls_total", "Remote round trips by linked server", "server"),
		linkRows:    r.CounterVec("dhqp_remote_rows_total", "Rows shipped from linked servers", "server"),
		linkBytes:   r.CounterVec("dhqp_remote_bytes_total", "Bytes shipped from linked servers", "server"),
		linkFaults:  r.CounterVec("dhqp_remote_faults_total", "Faulted remote round trips", "server"),
		linkSeconds: r.HistogramVec("dhqp_remote_call_seconds", "Remote round-trip latency", "server", nil),

		breakerTrips:  r.Counter("dhqp_breaker_trips_total", "Circuit breaker closed-to-open transitions"),
		retries:       r.Counter("dhqp_exec_retries_total", "Retried remote call attempts"),
		batches:       r.Counter("dhqp_exec_batches_total", "Vectorized batches drained"),
		batchRows:     r.Counter("dhqp_exec_batch_rows_total", "Rows in the vectorized batches drained"),
		rowsRead:      r.Counter("dhqp_exec_rows_read_total", "Rows read by SELECT statements' local scans and index ranges"),
		startupPruned: r.Counter("dhqp_exec_startup_pruned_total", "Startup filters whose predicate was false: subtrees never opened"),
		startupOpened: r.Counter("dhqp_exec_startup_opened_total", "Startup filters whose predicate held: subtrees opened"),
		waits:         r.Waits(),

		shardVersion:  r.Gauge("dhqp_shardmap_version", "Current shard-map version counter"),
		shardMoves:    r.Counter("dhqp_shardmap_moves_total", "Completed online shard moves"),
		rebalanceRows: r.Counter("dhqp_rebalance_rows_copied_total", "Rows copied by online shard moves"),
	}
	m.storageIns = &storage.Instrumentation{
		WALAppends:     r.Counter("dhqp_wal_appends_total", "WAL records appended"),
		WALBytes:       r.Counter("dhqp_wal_bytes_total", "WAL payload bytes appended"),
		WALFsyncs:      r.Counter("dhqp_wal_fsyncs_total", "Log-device fsync calls"),
		FsyncSeconds:   r.Histogram("dhqp_wal_fsync_seconds", "Per-fsync latency", nil),
		CommitSeconds:  r.Histogram("dhqp_commit_seconds", "Transaction commit latency", nil),
		WriteConflicts: r.Counter("dhqp_mvcc_write_conflicts_total", "First-writer-wins aborts"),
		RowLockWaits:   r.Counter("dhqp_mvcc_row_lock_aborts_total", "Aborts on prepared-row locks"),
		Recoveries:     r.Counter("dhqp_wal_recoveries_total", "WAL replays at attach"),
		RecoveredTxns:  r.Counter("dhqp_wal_recovered_txns_total", "Committed transactions replayed"),
		Waits:          m.waits,
	}
	return m
}

// Metrics exposes the server's metrics registry: the serving layer
// registers its instruments here and the HTTP/DMV exporters read it.
func (s *Server) Metrics() *metrics.Registry { return s.metricsReg }

// SetMetricsEnabled toggles metric recording on the engine, executor
// and storage hot paths. On by default; disabling is the baseline for
// the E18 overhead benchmark and leaves the registry readable (frozen)
// rather than detached.
func (s *Server) SetMetricsEnabled(on bool) {
	if on {
		s.mx.Store(s.allInstruments)
		s.store.SetInstrumentation(s.allInstruments.storageIns)
	} else {
		s.mx.Store(nil)
		s.store.SetInstrumentation(nil)
	}
}

// instr returns the active instrument bundle (nil when disabled).
func (s *Server) instr() *engineInstruments { return s.mx.Load() }

// noteStatement counts one executed statement under its verb.
func (s *Server) noteStatement(verb string) {
	if m := s.instr(); m != nil {
		m.statements.With(verb).Inc()
	}
}

// ResetMetrics zeroes every instrument in the registry (counters,
// histograms, label children, wait stats). Handed-out instruments stay
// live, mirroring the stats-registry and plan-cache reset semantics.
func (s *Server) ResetMetrics() { s.metricsReg.Reset() }

// ResetPlanCacheStats zeroes the plan cache outcome counters — hits,
// misses and evictions — without touching the cached plans, making its
// reset semantics uniform with ResetQueryStats (which clears the stats
// registry including its eviction counter) and ResetMetrics.
func (s *Server) ResetPlanCacheStats() {
	s.mu.Lock()
	s.planCacheEvictions = 0
	s.mu.Unlock()
	s.planCacheHits.Store(0)
	s.planCacheMisses.Store(0)
}

// --- the statement record -----------------------------------------------

// newRecord allocates a statement's record. collect turns on its detailed
// layer; with metrics on, each remote call also reaches the per-linked-
// server instruments as it happens.
func (s *Server) newRecord(collect bool) *telemetry.Collector {
	var sink telemetry.CallSink
	if m := s.instr(); m != nil {
		sink = m
	}
	return telemetry.NewCollector(collect, s.meter, sink)
}

// RemoteCall implements telemetry.CallSink.
func (m *engineInstruments) RemoteCall(server string, rows, bytes int, fault bool, d time.Duration) {
	m.linkCalls.With(server).Inc()
	if fault {
		m.linkFaults.With(server).Inc()
	} else {
		m.linkRows.With(server).Add(int64(rows))
		m.linkBytes.With(server).Add(int64(bytes))
	}
	m.linkSeconds.With(server).ObserveDuration(d)
	m.waits.Record(metrics.WaitRemoteCall, d)
}

// publish folds a statement's record into every server-wide view, once, as
// the statement ends. res is nil when the statement failed (err) or only
// compiled (Plan): the phases it reached, the breaker trips it caused and
// its executor counters count either way, while the result views —
// statements_total, rows_returned, statement latency, the Result's
// accounting, the query-stats registry and the slow-query log — see
// successful statements only. base is the statement's context, whose trace
// the slow-query line names.
func (s *Server) publish(base context.Context, cfg *Config, col *telemetry.Collector, res *Result, err error) (*Result, error) {
	n := col.Counts()
	if m := s.instr(); m != nil {
		for p, ran := range n.Ran {
			if ran {
				m.phaseSeconds.With(telemetry.Phase(p).String()).ObserveDuration(n.Phases[p])
			}
		}
		m.retries.Add(n.Retries)
		m.breakerTrips.Add(n.BreakerTrips)
		m.batches.Add(n.Batches)
		m.batchRows.Add(n.BatchRows)
		m.rowsRead.Add(n.RowsRead)
		m.startupOpened.Add(n.StartupOpened)
		m.startupPruned.Add(n.StartupPruned)
		for _, d := range n.Backoffs {
			m.waits.Record(metrics.WaitRetryBackoff, d)
		}
		if res != nil {
			m.statements.With("select").Inc()
			m.rowsReturned.Add(res.Stats.Rows)
			m.stmtSeconds.ObserveDuration(res.Stats.Elapsed)
		}
	}
	if res == nil {
		return nil, err
	}
	qs := res.Stats
	qs.Links, qs.Retries, qs.Spans = col.Links(), n.Retries, col.Spans()
	res.Retries, res.Skipped = n.Retries, col.Skipped()
	s.queryStats.Record(qs)
	tr, _ := telemetry.TraceFrom(base)
	s.maybeLogSlow(cfg, qs, tr)
	return res, nil
}

// --- slow-query log -----------------------------------------------------

// slowQueryRecord is one slow-query log line.
type slowQueryRecord struct {
	TS        string  `json:"ts"`
	Server    string  `json:"server"`
	TraceID   string  `json:"trace_id,omitempty"`
	Query     string  `json:"query"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Rows      int64   `json:"rows"`
	CacheHit  bool    `json:"cache_hit"`
	Retries   int64   `json:"retries,omitempty"`
	LinkCalls int64   `json:"link_calls,omitempty"`
	LinkBytes int64   `json:"link_bytes,omitempty"`
	Spans     string  `json:"spans,omitempty"`
}

// maybeLogSlow emits the slow-query record when the statement crossed
// cfg's threshold. tr may be nil (untraced statement).
func (s *Server) maybeLogSlow(cfg *Config, qs *telemetry.QueryStats, tr *telemetry.Trace) {
	if cfg.SlowQueryThreshold <= 0 || qs.Elapsed < cfg.SlowQueryThreshold {
		return
	}
	if m := s.instr(); m != nil {
		m.slowQueries.Inc()
	}
	rec := slowQueryRecord{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		Server:    s.name,
		TraceID:   tr.ID(),
		Query:     qs.QueryText,
		ElapsedMS: float64(qs.Elapsed) / float64(time.Millisecond),
		Rows:      qs.Rows,
		CacheHit:  qs.PlanCacheHit,
		Retries:   qs.Retries,
	}
	for _, l := range qs.Links {
		rec.LinkCalls += l.Calls
		rec.LinkBytes += l.Bytes
	}
	if tr != nil {
		rec.Spans = telemetry.RenderSpanTree(tr.Spans())
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	w := cfg.SlowQueryWriter
	if w == nil {
		w = os.Stderr
	}
	s.slowMu.Lock()
	w.Write(append(line, '\n'))
	s.slowMu.Unlock()
}
