package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// session is one authenticated connection. Its read loop stays free while a
// statement runs in its own goroutine, which is what makes cancel frames
// (and KILL from peers) deliverable mid-query; at most one statement is in
// flight per session, enforced by beginStatement.
type session struct {
	srv  *Server
	conn net.Conn
	id   int64

	// writeMu serializes outbound frames: a streaming result and an
	// asynchronous error (janitor, KILL of an idle session) must not
	// interleave bytes. It guards wbuf, the reused payload buffer.
	writeMu sync.Mutex
	bw      *bufio.Writer
	wbuf    []byte

	// wdMu guards wdOwner, the statement whose cancellation armed the
	// connection's write deadline (0: none armed); see armWriteDeadline.
	wdMu    sync.Mutex
	wdOwner int64

	mu         sync.Mutex
	login      time.Time
	lastActive time.Time
	// stmtCount numbers the session's statements; the number also identifies
	// the statement that owns the in-flight slot: beginStatement hands it out
	// and endStatement clears the slot only for that owner, so a late release
	// by statement A cannot cancel statement B begun after A's outcome frame
	// went out.
	stmtCount int64
	// In-flight statement state (active == one statement running or queued).
	active     bool
	state      string // "queued" then "running"
	sql        string
	queryID    int64
	started    time.Time
	cancel     context.CancelFunc
	cancelCode string // set by the first canceller; decides the error code
	cancelMsg  string
}

// touch records traffic for the idle janitor.
func (sess *session) touch() {
	sess.mu.Lock()
	sess.lastActive = time.Now()
	sess.mu.Unlock()
}

// idleSince reports whether the session has been statement-free and
// traffic-free since the cutoff.
func (sess *session) idleSince(cutoff time.Time) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return !sess.active && sess.lastActive.Before(cutoff)
}

// writeFrame encodes one frame into the session's buffered writer under
// the write mutex. Only a frame that ends an exchange (welcome, info,
// done, error) flushes: a result's cols and rows frames leave as the
// buffer fills, so a statement costs one flush.
func (sess *session) writeFrame(f *Frame, flush bool) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	buf, err := appendFrame(frameStart(sess.wbuf), f)
	if err != nil {
		return err
	}
	if err := sess.put(buf, f.Type); err != nil {
		return err
	}
	if flush {
		return sess.broken(sess.bw.Flush())
	}
	return nil
}

// writeRows encodes the rows idxs of a root batch's columns as one rows
// frame, split in halves only where a frame would pass MaxFrameBytes or
// maxFrameValues.
func (sess *session) writeRows(qid int64, cols []rowset.Vec, idxs []int) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	return sess.putRows(qid, cols, idxs)
}

func (sess *session) putRows(qid int64, cols []rowset.Vec, idxs []int) error {
	if len(idxs)*len(cols) <= maxFrameValues {
		buf := appendRows(frameStart(sess.wbuf), qid, cols, idxs)
		if len(buf)-prefixLen <= MaxFrameBytes || len(idxs) == 1 {
			return sess.put(buf, FrameRows)
		}
	} else if len(idxs) == 1 {
		return fmt.Errorf("server: a row of %d columns exceeds the %d values a rows frame holds", len(cols), maxFrameValues)
	}
	h := len(idxs) / 2
	if err := sess.putRows(qid, cols, idxs[:h]); err != nil {
		return err
	}
	return sess.putRows(qid, cols, idxs[h:])
}

// put seals and writes one frame built on frameStart; caller holds
// writeMu. A buffer a rare wide frame grew is dropped afterwards rather
// than pinned for the connection's life.
func (sess *session) put(buf []byte, typ string) error {
	sess.wbuf = retainBuf(buf)
	if err := sealFrame(buf, typ); err != nil {
		return err // nothing written: the stream is intact
	}
	if _, err := sess.bw.Write(buf); err != nil {
		return sess.broken(err)
	}
	sess.srv.sm.framesWritten.Inc()
	return nil
}

// broken closes the connection after a failed write: the peer may hold
// part of a frame, so the stream cannot continue (the writer's error is
// sticky anyway). The read loop then ends the session.
func (sess *session) broken(err error) error {
	if err != nil {
		sess.conn.Close()
	}
	return err
}

// sendError sends an error frame (best effort — the peer may be gone).
func (sess *session) sendError(qid int64, code, msg string) {
	_ = sess.writeFrame(&Frame{Type: FrameError, QueryID: qid, Code: code, Msg: msg}, true)
}

// streamResult writes a statement's result: the cols frame, then one rows
// frame per batch next returns until io.EOF, each encoded from the batch's
// column vectors into the session's buffered writer as it arrives. Once
// ctx is cancelled it writes nothing more, so the statement ends in its
// error frame on an intact stream.
func (sess *session) streamResult(ctx context.Context, qid int64, cols []schema.Column, next func() (*rowset.Batch, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := sess.writeFrame(&Frame{Type: FrameCols, QueryID: qid, Cols: encodeCols(cols)}, false); err != nil {
		return err
	}
	for {
		b, err := next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = sess.writeRows(qid, b.Cols(), b.Indices())
		}
		if err != nil {
			return err
		}
	}
}

// cancelWriteGrace is how long a write may still take once its statement is
// cancelled. A client that reads finishes a frame well inside it; one that
// stopped reading leaves the statement blocked in a socket write, holding
// its admission slot, snapshot and shard-map pin, and cancel, KILL and
// drain must still end it.
const cancelWriteGrace = 250 * time.Millisecond

// armWriteDeadline gives the connection's writes cancelWriteGrace from now
// on behalf of statement gen: a write still blocked then fails, and the
// session closes the connection (the peer may hold part of a frame).
func (sess *session) armWriteDeadline(gen int64) {
	sess.wdMu.Lock()
	defer sess.wdMu.Unlock()
	sess.wdOwner = gen
	_ = sess.conn.SetWriteDeadline(time.Now().Add(cancelWriteGrace))
}

// disarmWriteDeadline clears the write deadline if statement gen armed it
// last; it runs after gen's outcome frame, when the client may already have
// begun (and cancelled) its next statement.
func (sess *session) disarmWriteDeadline(gen int64) {
	sess.wdMu.Lock()
	defer sess.wdMu.Unlock()
	if sess.wdOwner == gen {
		sess.wdOwner = 0
		_ = sess.conn.SetWriteDeadline(time.Time{})
	}
}

// beginStatement claims the session's single in-flight statement slot and
// returns the statement number (gen) that identifies the claim to
// endStatement.
func (sess *session) beginStatement(sql string, qid int64, cancel context.CancelFunc) (gen int64, ok bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.active {
		return 0, false
	}
	sess.active = true
	sess.state = "queued"
	sess.sql = sql
	sess.queryID = qid
	sess.started = time.Now()
	sess.cancel = cancel
	sess.cancelCode = ""
	sess.cancelMsg = ""
	sess.stmtCount++
	return sess.stmtCount, true
}

// markRunning flips the statement from queued (waiting on admission) to
// running (holding a slot).
func (sess *session) markRunning() {
	sess.mu.Lock()
	sess.state = "running"
	sess.mu.Unlock()
}

// cancelRunning cancels the in-flight statement (queued statements abort
// out of the admission wait too) and records why, so the error frame can
// carry CANCELLED vs KILLED vs SHUTTING_DOWN. The first canceller's reason
// wins. Reports whether there was a statement to cancel.
func (sess *session) cancelRunning(code, msg string) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.active || sess.cancel == nil {
		return false
	}
	if sess.cancelCode == "" {
		sess.cancelCode = code
		sess.cancelMsg = msg
	}
	sess.cancel()
	return true
}

// cancelReason reads the recorded cancellation cause ("" if none).
func (sess *session) cancelReason() (string, string) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.cancelCode, sess.cancelMsg
}

// endStatement releases the in-flight slot if statement gen still owns it.
// A statement releases before its outcome frame and again from
// runStatement's defer; by the second call the client may have begun its
// next statement, which a release without the owner check would cancel.
func (sess *session) endStatement(gen int64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.active || sess.stmtCount != gen {
		return
	}
	if sess.cancel != nil {
		sess.cancel()
	}
	sess.active = false
	sess.state = ""
	sess.sql = ""
	sess.queryID = 0
	sess.cancel = nil
	sess.lastActive = time.Now()
}

// handleConn runs one session: handshake, register, then the frame loop.
func (s *Server) handleConn(rawConn net.Conn) {
	defer s.wg.Done()
	conn := &countingConn{Conn: rawConn, sm: s.sm}
	defer conn.Close()
	now := time.Now()
	sess := &session{srv: s, conn: conn, bw: bufio.NewWriter(conn), login: now, lastActive: now}
	fr := frameReader{br: bufio.NewReader(conn), queriesOnly: true}
	// The handshake runs under a read deadline so half-open connections
	// cannot pin a serving goroutine forever.
	_ = conn.SetReadDeadline(now.Add(s.opt.HandshakeTimeout))
	f, _, err := fr.next(nil)
	if err != nil {
		return
	}
	s.sm.framesRead.Inc()
	if f.Type != FrameHello {
		sess.sendError(0, CodeProtocol, fmt.Sprintf("expected hello, got %q", f.Type))
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	id, ok := s.register(sess)
	if !ok {
		sess.sendError(0, CodeShutdown, "server shutting down")
		return
	}
	s.sm.sessionsOpened.Inc()
	s.sm.sessionsActive.Inc()
	defer s.sm.sessionsActive.Add(-1)
	defer s.unregister(id)
	// A vanished client must not strand its statement holding a slot.
	defer sess.cancelRunning(CodeCancelled, "session closed")
	if err := sess.writeFrame(&Frame{Type: FrameWelcome, SessionID: id, Server: s.eng.Name()}, true); err != nil {
		return
	}
	for {
		f, _, err := fr.next(nil)
		if err != nil {
			return
		}
		s.sm.framesRead.Inc()
		sess.touch()
		switch f.Type {
		case FrameQuery:
			qctx, cancel := context.WithCancel(context.Background())
			gen, ok := sess.beginStatement(f.SQL, f.QueryID, cancel)
			if !ok {
				cancel()
				sess.sendError(f.QueryID, CodeProtocol, "a statement is already in flight on this session")
				continue
			}
			s.wg.Add(1)
			go s.runStatement(sess, gen, f, qctx)
		case FrameCancel:
			sess.cancelRunning(CodeCancelled, "cancelled by client")
		case FrameInfo:
			info := s.Info()
			_ = sess.writeFrame(&Frame{Type: FrameInfo, Info: &info}, true)
		case FrameBye:
			return
		default:
			sess.sendError(f.QueryID, CodeProtocol, fmt.Sprintf("unexpected %q frame", f.Type))
		}
	}
}

// runStatement executes one statement frame and streams its outcome. KILL
// and DMV statements bypass admission — observability and the ability to
// shoot a runaway query must keep working on a saturated server.
func (s *Server) runStatement(sess *session, gen int64, f *Frame, qctx context.Context) {
	defer s.wg.Done()
	defer sess.endStatement(gen)
	qid := f.QueryID
	kind, killID := classifyStatement(f.SQL)
	switch kind {
	case stmtSelect, stmtExec:
	case stmtKill:
		sess.markRunning()
		if err := s.kill(killID, sess.id); err != nil {
			sess.endStatement(gen)
			sess.sendError(qid, CodeQuery, err.Error())
			return
		}
		sess.endStatement(gen)
		_ = sess.writeFrame(&Frame{Type: FrameDone, QueryID: qid}, true)
		return
	default:
		// No admission wait for the DMVs either; they are running the
		// moment they start.
		sess.markRunning()
		sess.sendResult(qctx, gen, qid, s.dmv(kind))
		return
	}
	// Engine statements pass admission control.
	if err := s.admit(qctx); err != nil {
		sess.sendStatementError(gen, qid, err)
		return
	}
	sess.markRunning()
	s.running.Add(1)
	start := time.Now()
	if kind == stmtSelect {
		// A client-propagated trace joins here: this server (and every
		// in-process federation member below it) records spans with a
		// span-ID range disjoint from the client's, nested under the
		// client's parent span; they ship back on the done frame.
		ectx := qctx
		var tr *telemetry.Trace
		if f.TraceID != "" {
			tr = telemetry.JoinTrace(f.TraceID)
			ectx = telemetry.WithTrace(qctx, tr, f.SpanID)
		}
		// The result streams while the statement runs: it holds its slot
		// until the last rows frame is in the writer. Cancellation bounds
		// the write in flight, then the outcome frame, by cancelWriteGrace.
		stopWatch := context.AfterFunc(qctx, func() { sess.armWriteDeadline(gen) })
		defer sess.disarmWriteDeadline(gen)
		var res *engine.Result
		cur, err := s.eng.OpenQuery(ectx, f.SQL, f.Params)
		if err == nil {
			res, err = cur.Finish(sess.streamResult(qctx, qid, cur.Columns(), cur.Pull))
		}
		if !stopWatch() {
			sess.armWriteDeadline(gen) // a fresh window for the outcome frame
		}
		elapsed := time.Since(start)
		s.running.Add(-1)
		s.release()
		if err != nil {
			sess.sendStatementError(gen, qid, err)
			return
		}
		var spans []WireSpan
		if tr != nil {
			spans = encodeSpans(tr.Spans())
		}
		// Release the statement slot before done goes out (see
		// sendStatementError); endStatement is idempotent, so the deferred
		// call remains a backstop for error paths.
		sess.endStatement(gen)
		_ = sess.writeFrame(&Frame{Type: FrameDone, QueryID: qid, RowCount: res.Stats.Rows,
			ElapsedUS: elapsed.Microseconds(), Retries: res.Retries, Skipped: res.Skipped, Spans: spans}, true)
		return
	}
	// DML/DDL runs to completion; the engine's write path is not
	// context-aware, so cancellation takes effect at statement boundaries
	// only (documented in DESIGN.md). The writer count covers execution
	// AND the outcome frame: a draining server must not close this
	// connection before the client learns whether its commit happened.
	s.writers.Add(1)
	affected, err := s.eng.ExecParams(f.SQL, f.Params)
	elapsed := time.Since(start)
	s.running.Add(-1)
	s.release()
	if err != nil {
		sess.sendStatementError(gen, qid, err)
	} else {
		sess.endStatement(gen)
		_ = sess.writeFrame(&Frame{Type: FrameDone, QueryID: qid, RowCount: affected, ElapsedUS: elapsed.Microseconds()}, true)
	}
	s.writers.Add(-1)
}

// sendStatementError maps an execution error onto a typed error frame.
func (sess *session) sendStatementError(gen, qid int64, err error) {
	code, msg := CodeQuery, err.Error()
	var qe *QueryError
	switch {
	case IsBusy(err):
		code = CodeBusy
	case errors.As(err, &qe):
		// Typed errors minted server-side (shutdown during admission).
		code, msg = qe.Code, qe.Msg
	case oledb.Classify(err) == oledb.ClassCancelled:
		// The statement died to its context. The recorded cancel reason
		// distinguishes the client's own cancel from a peer's KILL and
		// from drain; absent one (engine-side query timeout), it stays
		// CANCELLED with the engine's message.
		code = CodeCancelled
		if c, m := sess.cancelReason(); c != "" {
			code, msg = c, m
		}
	}
	// Release the statement slot before the outcome frame goes out: the
	// moment the client reads it, its next query is legal, and the frame
	// loop must not race the deferred cleanup into a protocol error.
	sess.endStatement(gen)
	sess.sendError(qid, code, msg)
}

// sendResult sends a materialized result (a DMV) through the statement
// encoder: cols, one rows frame per Materialized.NextBatch, then done.
func (sess *session) sendResult(ctx context.Context, gen, qid int64, res *engine.Result) {
	m := rowset.NewMaterialized(res.Cols, res.Rows)
	b := rowset.NewBatch(rowset.DefaultBatchSize)
	err := sess.streamResult(ctx, qid, res.Cols, func() (*rowset.Batch, error) { return b, m.NextBatch(b) })
	if err != nil {
		sess.sendStatementError(gen, qid, err)
		return
	}
	sess.endStatement(gen)
	_ = sess.writeFrame(&Frame{Type: FrameDone, QueryID: qid, RowCount: int64(len(res.Rows))}, true)
}

// dmv renders the DMV a statement selects.
func (s *Server) dmv(kind statementKind) *engine.Result {
	switch kind {
	case stmtDMVSessions:
		return s.sessionsDMV()
	case stmtDMVRequests:
		return s.requestsDMV()
	case stmtDMVQueryStats:
		return QueryStatsResult(s.eng)
	case stmtDMVPlanCache:
		return PlanCacheResult(s.eng)
	case stmtDMVPerfCounters:
		return PerformanceCountersResult(s.eng)
	case stmtDMVWaitStats:
		return WaitStatsResult(s.eng)
	default:
		return ShardMapResult(s.eng)
	}
}

// sessionsDMV renders sys.dm_exec_sessions from the session registry.
func (s *Server) sessionsDMV() *engine.Result {
	res := &engine.Result{Cols: []schema.Column{
		{Name: "session_id", Kind: sqltypes.KindInt},
		{Name: "login_time", Kind: sqltypes.KindString},
		{Name: "status", Kind: sqltypes.KindString},
		{Name: "statement_count", Kind: sqltypes.KindInt},
		{Name: "last_request", Kind: sqltypes.KindString},
	}}
	sessions := s.snapshotSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	for _, sess := range sessions {
		sess.mu.Lock()
		status := "sleeping"
		if sess.active {
			status = sess.state
		}
		res.Rows = append(res.Rows, rowset.Row{
			sqltypes.NewInt(sess.id),
			sqltypes.NewString(sess.login.Format(time.RFC3339)),
			sqltypes.NewString(status),
			sqltypes.NewInt(sess.stmtCount),
			sqltypes.NewString(sess.lastActive.Format(time.RFC3339)),
		})
		sess.mu.Unlock()
	}
	return res
}

// requestsDMV renders sys.dm_exec_requests: one row per in-flight
// statement, queued or running.
func (s *Server) requestsDMV() *engine.Result {
	res := &engine.Result{Cols: []schema.Column{
		{Name: "session_id", Kind: sqltypes.KindInt},
		{Name: "query_id", Kind: sqltypes.KindInt},
		{Name: "status", Kind: sqltypes.KindString},
		{Name: "elapsed_ms", Kind: sqltypes.KindFloat},
		{Name: "sql_text", Kind: sqltypes.KindString},
	}}
	sessions := s.snapshotSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	now := time.Now()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.active {
			res.Rows = append(res.Rows, rowset.Row{
				sqltypes.NewInt(sess.id),
				sqltypes.NewInt(sess.queryID),
				sqltypes.NewString(sess.state),
				sqltypes.NewFloat(float64(now.Sub(sess.started).Microseconds()) / 1000),
				sqltypes.NewString(sess.sql),
			})
		}
		sess.mu.Unlock()
	}
	return res
}

// QueryStatsResult renders the engine's query-stats registry as a result
// set, mirroring SELECT * FROM sys.dm_exec_query_stats. Exported so fedsql
// serves the identical shape in embedded mode.
func QueryStatsResult(eng *engine.Server) *engine.Result {
	res := &engine.Result{Cols: []schema.Column{
		{Name: "query_text", Kind: sqltypes.KindString},
		{Name: "execution_count", Kind: sqltypes.KindInt},
		{Name: "total_rows", Kind: sqltypes.KindInt},
		{Name: "last_rows", Kind: sqltypes.KindInt},
		{Name: "total_elapsed_ms", Kind: sqltypes.KindFloat},
		{Name: "last_elapsed_ms", Kind: sqltypes.KindFloat},
		{Name: "total_link_bytes", Kind: sqltypes.KindInt},
		{Name: "total_link_calls", Kind: sqltypes.KindInt},
		{Name: "total_retries", Kind: sqltypes.KindInt},
	}}
	for _, r := range eng.QueryStats() {
		res.Rows = append(res.Rows, rowset.Row{
			sqltypes.NewString(r.QueryText),
			sqltypes.NewInt(r.ExecutionCount),
			sqltypes.NewInt(r.TotalRows),
			sqltypes.NewInt(r.LastRows),
			sqltypes.NewFloat(float64(r.TotalElapsed.Microseconds()) / 1000),
			sqltypes.NewFloat(float64(r.LastElapsed.Microseconds()) / 1000),
			sqltypes.NewInt(r.TotalLinkBytes),
			sqltypes.NewInt(r.TotalLinkCalls),
			sqltypes.NewInt(r.TotalRetries),
		})
	}
	return res
}

// PlanCacheResult renders sys.dm_exec_cached_plans-style counters for the
// bounded plan cache and query-stats registry.
func PlanCacheResult(eng *engine.Server) *engine.Result {
	st := eng.PlanCacheStats()
	return &engine.Result{
		Cols: []schema.Column{
			{Name: "capacity", Kind: sqltypes.KindInt},
			{Name: "size", Kind: sqltypes.KindInt},
			{Name: "hits", Kind: sqltypes.KindInt},
			{Name: "misses", Kind: sqltypes.KindInt},
			{Name: "evictions", Kind: sqltypes.KindInt},
			{Name: "query_stats_evicted", Kind: sqltypes.KindInt},
		},
		Rows: []rowset.Row{{
			sqltypes.NewInt(int64(st.Capacity)),
			sqltypes.NewInt(int64(st.Size)),
			sqltypes.NewInt(st.Hits),
			sqltypes.NewInt(st.Misses),
			sqltypes.NewInt(st.Evictions),
			sqltypes.NewInt(eng.QueryStatsEvicted()),
		}},
	}
}
