package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// Result is a statement outcome rehydrated on the client side.
type Result struct {
	Cols []schema.Column
	Rows []rowset.Row
	// RowsAffected carries a DML statement's count (SELECTs report rows).
	RowsAffected int64
	// Elapsed is the server-side execution time.
	Elapsed time.Duration
	// Retries and Skipped mirror engine.Result: transient faults absorbed
	// and partitioned-view members skipped under partial results.
	Retries int64
	Skipped []string
	// TraceID and Spans carry the distributed trace of a traced query
	// (Client.SetTrace): the server-side span tree — coordinator statement,
	// remote calls, member statements — rooted under the client's request.
	TraceID string
	Spans   []telemetry.TraceSpan
}

// SpanTree renders the traced query's span tree ("" when untraced).
func (r *Result) SpanTree() string {
	if len(r.Spans) == 0 {
		return ""
	}
	return telemetry.RenderSpanTree(r.Spans)
}

// Display renders the result the same way the embedded engine does.
func (r *Result) Display() string {
	eres := engine.Result{Cols: r.Cols, Rows: r.Rows}
	return eres.Display()
}

// Client is one session against a serving-layer endpoint. Query/Exec/
// ServerInfo are synchronous and serialized (one request at a time, like a
// SQL connection); Cancel is the one out-of-band call and may be issued
// from another goroutine while a Query is in flight.
type Client struct {
	conn      net.Conn
	sessionID int64
	server    string

	// writeMu serializes outbound frames so Cancel can interleave safely
	// with a request in flight; it guards wbuf, the reused outbound
	// payload buffer.
	writeMu sync.Mutex
	wbuf    []byte
	// reqMu serializes request/response exchanges; it guards fr, the
	// inbound frame reader.
	reqMu   sync.Mutex
	fr      frameReader
	nextQID atomic.Int64
	closed  atomic.Bool
	// trace, when on, stamps every query frame with a fresh trace ID so the
	// server returns its distributed span tree on the done frame.
	trace atomic.Bool
}

// SetTrace toggles distributed tracing for this session's queries: each
// traced SELECT returns the server-side span tree in Result.Spans.
func (c *Client) SetTrace(on bool) { c.trace.Store(on) }

// Dial opens a session: connect, hello, welcome. The handshake runs under
// a 10s deadline; an unresponsive endpoint fails fast.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, fr: frameReader{br: bufio.NewReader(conn)}}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := c.writeFrame(&Frame{Type: FrameHello}); err != nil {
		conn.Close()
		return nil, err
	}
	f, _, err := c.fr.next(nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.Type == FrameError {
		conn.Close()
		return nil, &QueryError{Code: f.Code, Msg: f.Msg}
	}
	if f.Type != FrameWelcome {
		conn.Close()
		return nil, fmt.Errorf("server: expected welcome, got %q", f.Type)
	}
	_ = conn.SetDeadline(time.Time{})
	c.sessionID = f.SessionID
	c.server = f.Server
	return c, nil
}

// SessionID reports the server-assigned session ID (the KILL target).
func (c *Client) SessionID() int64 { return c.sessionID }

// ServerName reports the served engine's name from the welcome frame.
func (c *Client) ServerName() string { return c.server }

func (c *Client) writeFrame(f *Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	buf, err := appendFrame(frameStart(c.wbuf), f)
	if err == nil {
		c.wbuf = retainBuf(buf)
		err = sealFrame(buf, f.Type)
	}
	if err != nil {
		return err
	}
	_, err = c.conn.Write(buf)
	return err
}

// Query executes one statement — SELECT, DML, KILL or a DMV select — and
// collects the streamed result. Errors carry their wire code: IsBusy
// detects admission rejections, IsKilled a peer's KILL, and a cancelled or
// killed statement classifies as ClassCancelled through errors.Is. An
// error that arrives after some rows frames discards those rows.
func (c *Client) Query(sql string, params map[string]sqltypes.Value) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	qid := c.nextQID.Add(1)
	req := &Frame{Type: FrameQuery, QueryID: qid, SQL: sql, Params: params}
	if c.trace.Load() {
		// Parent span 0: the server's statement span roots the tree.
		req.TraceID = telemetry.NewTrace().ID()
	}
	if err := c.writeFrame(req); err != nil {
		return nil, err
	}
	res := &Result{TraceID: req.TraceID}
	for {
		// Rows frames decode straight onto res.Rows.
		f, rows, err := c.fr.next(res.Rows)
		if err != nil {
			return nil, err
		}
		res.Rows = rows
		switch f.Type {
		case FrameCols:
			res.Cols = decodeCols(f.Cols)
		case FrameRows:
		case FrameDone:
			if len(res.Cols) == 0 {
				res.RowsAffected = f.RowCount
			}
			res.Elapsed = time.Duration(f.ElapsedUS) * time.Microsecond
			res.Retries = f.Retries
			res.Skipped = f.Skipped
			res.Spans = decodeSpans(f.Spans)
			return res, nil
		case FrameError:
			return nil, &QueryError{Code: f.Code, Msg: f.Msg}
		default:
			return nil, fmt.Errorf("server: unexpected %q frame mid-result", f.Type)
		}
	}
}

// Exec executes a DML statement and reports its rows-affected count.
func (c *Client) Exec(sql string, params map[string]sqltypes.Value) (int64, error) {
	res, err := c.Query(sql, params)
	if err != nil {
		return 0, err
	}
	return res.RowsAffected, nil
}

// Cancel aborts the session's in-flight statement. Out of band: safe to
// call from another goroutine while Query blocks; the blocked Query then
// returns a CANCELLED error. A no-op when nothing is running.
func (c *Client) Cancel() error {
	return c.writeFrame(&Frame{Type: FrameCancel})
}

// Kill asks the server to kill another session's work: its running
// statement is cancelled, or its connection closed when idle.
func (c *Client) Kill(sessionID int64) error {
	_, err := c.Query(fmt.Sprintf("KILL %d", sessionID), nil)
	return err
}

// ServerInfo snapshots the serving layer's occupancy.
func (c *Client) ServerInfo() (*ServerInfo, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.writeFrame(&Frame{Type: FrameInfo}); err != nil {
		return nil, err
	}
	f, _, err := c.fr.next(nil)
	if err != nil {
		return nil, err
	}
	if f.Type == FrameError {
		return nil, &QueryError{Code: f.Code, Msg: f.Msg}
	}
	if f.Type != FrameInfo || f.Info == nil {
		return nil, fmt.Errorf("server: expected info, got %q", f.Type)
	}
	return f.Info, nil
}

// Close ends the session: a best-effort bye, then the connection drops.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	_ = c.writeFrame(&Frame{Type: FrameBye})
	return c.conn.Close()
}
