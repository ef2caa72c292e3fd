package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/metrics"
)

// Options tunes the serving layer. The zero value picks every default.
type Options struct {
	// MaxConcurrent is the number of concurrent-query slots: statements
	// past it queue, statements past the queue are rejected busy. Default
	// max(2, GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds how many statements may wait for a slot (default 32).
	// A full queue rejects immediately — queueing further work behind an
	// already-deep backlog only converts overload into latency.
	MaxQueue int
	// QueueTimeout bounds how long one statement waits for a slot before a
	// busy rejection (default 2s).
	QueueTimeout time.Duration
	// IdleTimeout closes sessions with no traffic and no running statement
	// (default 5m).
	IdleTimeout time.Duration
	// DrainTimeout bounds graceful drain: Close stops accepting, lets
	// in-flight statements finish this long, then cancels them (default 5s).
	DrainTimeout time.Duration
	// HandshakeTimeout bounds how long a fresh connection may take to send
	// hello (default 10s); it keeps half-open connections from pinning
	// sessions.
	HandshakeTimeout time.Duration
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
		if o.MaxConcurrent < 2 {
			o.MaxConcurrent = 2
		}
	}
	if o.MaxQueue < 1 {
		o.MaxQueue = 32
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	return o
}

// Server serves one engine over TCP. It owns the listener, the session
// registry and the admission slots; the engine itself stays usable
// in-process (local callers and network sessions share plan cache,
// breakers and query statistics).
type Server struct {
	eng *engine.Server
	opt Options

	mu       sync.Mutex
	ln       net.Listener
	sessions map[int64]*session
	nextSess int64
	draining bool

	// drainCh closes when Close begins: queued admissions abort, the
	// janitor stops, the accept loop unblocks.
	drainCh chan struct{}
	// closed flips once Close has completed (idempotence).
	closed bool

	// slots is the admission pool; holding a token = running a statement.
	slots   chan struct{}
	queued  atomic.Int64
	running atomic.Int64
	// writers counts in-flight DML/DDL statements from admission until
	// their outcome frame is on the wire. Unlike SELECTs they are not
	// context-cancellable mid-commit, and a commit may already be durable
	// in the WAL — drain waits them out and keeps their connections open
	// so the client receives the acknowledgement for work that happened.
	writers atomic.Int64

	// wg tracks the accept loop, the janitor, every session loop and every
	// in-flight statement goroutine; Close waits for all of them, which is
	// what makes "drain leaks no goroutines" testable.
	wg sync.WaitGroup

	// sm holds the serving layer's instruments, registered on the engine's
	// metrics registry so one scrape covers both layers.
	sm *srvInstruments
}

// New wraps an engine in a serving layer. Call Listen (or Serve) to start
// accepting sessions.
func New(eng *engine.Server, opt Options) *Server {
	opt = opt.withDefaults()
	return &Server{
		eng:      eng,
		opt:      opt,
		sessions: map[int64]*session{},
		drainCh:  make(chan struct{}),
		slots:    make(chan struct{}, opt.MaxConcurrent),
		sm:       newSrvInstruments(eng.Metrics()),
	}
}

// Engine returns the served engine.
func (s *Server) Engine() *engine.Server { return s.eng }

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in background
// goroutines; it returns the bound address immediately.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.startServing(ln)
	return ln.Addr(), nil
}

// Serve starts serving on a caller-provided listener (tests with in-memory
// listeners, systemd-style socket activation).
func (s *Server) Serve(ln net.Listener) {
	s.startServing(ln)
}

func (s *Server) startServing(ln net.Listener) {
	s.mu.Lock()
	if s.ln != nil || s.draining {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(2)
	go s.acceptLoop(ln)
	go s.janitor()
}

// Addr reports the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// acceptLoop admits connections until the listener closes (drain).
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// janitor sweeps idle sessions: a session with no running statement and no
// traffic for IdleTimeout is closed (its loop exits on the read error).
func (s *Server) janitor() {
	defer s.wg.Done()
	period := s.opt.IdleTimeout / 4
	if period > time.Second {
		period = time.Second
	}
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.drainCh:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.opt.IdleTimeout)
			for _, sess := range s.snapshotSessions() {
				if sess.idleSince(cutoff) {
					sess.sendError(0, CodeProtocol, "session closed: idle timeout")
					sess.conn.Close()
				}
			}
		}
	}
}

// snapshotSessions copies the registry (iteration without the lock).
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// Info snapshots the serving layer's occupancy.
func (s *Server) Info() ServerInfo {
	s.mu.Lock()
	n := len(s.sessions)
	draining := s.draining
	s.mu.Unlock()
	return ServerInfo{
		Server:        s.eng.Name(),
		Sessions:      n,
		Running:       int(s.running.Load()),
		Queued:        int(s.queued.Load()),
		MaxConcurrent: s.opt.MaxConcurrent,
		Draining:      draining,
	}
}

// admit acquires a concurrent-query slot, queueing up to QueueTimeout when
// all slots are taken. It fails fast with a typed BusyError when the wait
// queue itself is full, and aborts on statement cancellation or drain.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.opt.MaxQueue) {
		s.queued.Add(-1)
		s.sm.admissionBusy.Inc()
		return &BusyError{Reason: fmt.Sprintf("all %d query slots taken and the wait queue of %d is full", s.opt.MaxConcurrent, s.opt.MaxQueue)}
	}
	defer s.queued.Add(-1)
	// The statement is queueing: whatever the outcome, the time spent here
	// is an ADMISSION_QUEUE wait.
	s.sm.admissionWaits.Inc()
	start := time.Now()
	defer func() { s.sm.waits.Record(metrics.WaitAdmissionQueue, time.Since(start)) }()
	t := time.NewTimer(s.opt.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-t.C:
		s.sm.admissionBusy.Inc()
		return &BusyError{Reason: fmt.Sprintf("queued %v for a query slot (all %d taken)", s.opt.QueueTimeout, s.opt.MaxConcurrent)}
	case <-ctx.Done():
		return ctx.Err()
	case <-s.drainCh:
		return &QueryError{Code: CodeShutdown, Msg: "server shutting down"}
	}
}

// release returns a slot.
func (s *Server) release() { <-s.slots }

// register adds a fresh session under the next session ID.
func (s *Server) register(sess *session) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, false
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	return sess.id, true
}

// unregister removes a closed session.
func (s *Server) unregister(id int64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// sessionByID resolves a live session.
func (s *Server) sessionByID(id int64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// kill implements KILL <session_id>: a running statement on the victim is
// cancelled (its client sees a KILLED error naming the killer); an idle
// victim's connection is closed. Any session may kill any other — every
// session of this reproduction is an admin session.
func (s *Server) kill(victimID, byID int64) error {
	victim := s.sessionByID(victimID)
	if victim == nil {
		return fmt.Errorf("session %d does not exist", victimID)
	}
	if victim.cancelRunning(CodeKilled, fmt.Sprintf("killed by session %d", byID)) {
		s.sm.kills.Inc()
		return nil
	}
	if victimID == byID {
		return fmt.Errorf("cannot kill the current session %d while it is idle", victimID)
	}
	victim.sendError(0, CodeKilled, fmt.Sprintf("session killed by session %d", byID))
	victim.conn.Close()
	s.sm.kills.Inc()
	return nil
}

// Close gracefully drains the server: stop accepting, let in-flight
// statements finish under DrainTimeout, cancel the stragglers, close every
// session and wait for all serving goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if alreadyDraining {
		// A concurrent Close is mid-drain; wait for it.
		s.wg.Wait()
		return nil
	}
	if ln != nil {
		ln.Close()
	}
	s.sm.drains.Inc()
	close(s.drainCh)
	// Let in-flight statements finish under the drain deadline. Queued
	// statements abort immediately through drainCh.
	deadline := time.Now().Add(s.opt.DrainTimeout)
	for s.running.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// Cancel the stragglers, then close every connection. Writers are
	// exempt from cancellation-by-deadline: their work may already be
	// durable, so drain waits for each one's outcome frame to reach the
	// wire before the connection goes away.
	for _, sess := range s.snapshotSessions() {
		sess.cancelRunning(CodeShutdown, "server shutting down")
	}
	for s.writers.Load() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	for _, sess := range s.snapshotSessions() {
		sess.conn.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// statementKind routes one statement text.
type statementKind int

const (
	stmtSelect statementKind = iota
	stmtExec
	stmtKill
	stmtDMVSessions
	stmtDMVRequests
	stmtDMVQueryStats
	stmtDMVPlanCache
	stmtDMVPerfCounters
	stmtDMVWaitStats
	stmtDMVShardMap
)

// classifyStatement routes by statement prefix the way fedsql's REPL does;
// DMV selects are recognized by their catalog names.
func classifyStatement(sql string) (statementKind, int64) {
	upper := strings.ToUpper(strings.TrimSpace(sql))
	if rest, ok := strings.CutPrefix(upper, "KILL"); ok {
		id, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err == nil {
			return stmtKill, id
		}
	}
	if strings.HasPrefix(upper, "SELECT") {
		switch {
		case strings.Contains(upper, "DM_EXEC_SESSIONS"):
			return stmtDMVSessions, 0
		case strings.Contains(upper, "DM_EXEC_REQUESTS"):
			return stmtDMVRequests, 0
		case strings.Contains(upper, "DM_EXEC_QUERY_STATS"):
			return stmtDMVQueryStats, 0
		case strings.Contains(upper, "DM_EXEC_CACHED_PLANS"):
			return stmtDMVPlanCache, 0
		case strings.Contains(upper, "DM_OS_PERFORMANCE_COUNTERS"):
			return stmtDMVPerfCounters, 0
		case strings.Contains(upper, "DM_OS_WAIT_STATS"):
			return stmtDMVWaitStats, 0
		case strings.Contains(upper, "DM_SHARD_MAP"):
			return stmtDMVShardMap, 0
		}
		return stmtSelect, 0
	}
	return stmtExec, 0
}
