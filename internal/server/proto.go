// Package server implements the network serving layer: a TCP endpoint that
// exposes one engine.Server to remote clients over a length-prefixed frame
// protocol — binary columnar statement frames streamed from the root
// iterator's batches, JSON control frames — with per-connection sessions,
// admission control over a bounded pool of concurrent-query slots,
// client-initiated cancellation, KILL <session_id> from any peer session,
// and graceful drain on Close.
//
// The paper's DHQP lives inside a server product — SQL Server accepts
// concurrent client sessions, each issuing distributed queries. This
// package is that missing outermost layer of Figure 1: everything below it
// (parser, optimizer, executor, providers) is the library the rest of the
// repository built; here it becomes a service with explicit session and
// request lifecycles.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// Frame types. A session speaks strictly request/response — the only frame
// a client may send while a query of its own is in flight is "cancel"; the
// server never pushes unsolicited frames.
const (
	// Client → server.
	FrameHello  = "hello"  // open a session
	FrameQuery  = "query"  // execute one statement (SELECT, DML, KILL, DMV)
	FrameCancel = "cancel" // abort the session's in-flight statement
	FrameInfo   = "info"   // request a ServerInfo snapshot
	FrameBye    = "bye"    // close the session cleanly

	// Server → client.
	FrameWelcome = "welcome" // session established (carries SessionID)
	FrameCols    = "cols"    // result-set shape; row batches follow
	FrameRows    = "rows"    // one root batch of rows
	FrameDone    = "done"    // statement finished (row count / rows affected)
	FrameError   = "error"   // statement or protocol failure (typed Code)
)

// Error codes carried by error frames; the client rehydrates them into
// typed errors (BusyError, QueryError).
const (
	CodeBusy      = "SERVER_BUSY"    // admission rejected: slots full, queue full or queue timeout
	CodeCancelled = "CANCELLED"      // the session's own cancel aborted the statement
	CodeKilled    = "KILLED"         // another session's KILL aborted the statement
	CodeShutdown  = "SHUTTING_DOWN"  // server draining; no new statements
	CodeQuery     = "QUERY_ERROR"    // the engine rejected or failed the statement
	CodeProtocol  = "PROTOCOL_ERROR" // malformed or out-of-order frame
)

// MaxFrameBytes bounds a single frame (both directions). A root batch that
// would encode past it is split; the bound exists so a corrupt or hostile
// length prefix cannot make the peer allocate without limit.
const MaxFrameBytes = 16 << 20

// Frame is the single wire message shape; Type selects which fields are
// meaningful. The four statement frames (query, cols, rows, done) have one
// binary layout each (codec.go); the six control frames are one JSON
// object, which keeps the handshake and errors debuggable with `nc`. A
// payload's first byte tells them apart: JSON starts with '{', a binary
// frame with its type tag. Fields tagged json:"-" exist only in binary
// frames.
type Frame struct {
	Type      string `json:"type"`
	SessionID int64  `json:"session_id,omitempty"`
	QueryID   int64  `json:"query_id,omitempty"`

	// Query request. TraceID/SpanID propagate the client's distributed
	// trace: the server joins the trace (with a disjoint span-ID range) and
	// nests the statement's span tree under the given parent span.
	SQL     string                    `json:"-"`
	Params  map[string]sqltypes.Value `json:"-"`
	TraceID string                    `json:"-"`
	SpanID  uint64                    `json:"-"`

	// Result stream. Rows is the boxed view ReadFrame fills and WriteFrame
	// encodes; the session encodes rows frames straight from batches and
	// the client decodes them straight into rowset rows.
	Cols      []WireCol     `json:"-"`
	Rows      [][]WireValue `json:"-"`
	RowCount  int64         `json:"-"` // done: result rows (SELECT) or rows affected (DML)
	ElapsedUS int64         `json:"-"`
	Retries   int64         `json:"-"`
	Skipped   []string      `json:"-"`
	// Spans rides the done frame of a traced statement: every span the
	// server side recorded (statement, remote calls, member statements),
	// for the client to graft into its trace.
	Spans []WireSpan `json:"-"`

	// Error frames.
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg,omitempty"`

	// Welcome / info.
	Server string      `json:"server,omitempty"`
	Info   *ServerInfo `json:"info,omitempty"`
}

// controlFrame reports whether a frame type travels as JSON.
func controlFrame(typ string) bool {
	switch typ {
	case FrameHello, FrameWelcome, FrameInfo, FrameBye, FrameCancel, FrameError:
		return true
	}
	return false
}

// ServerInfo is the server-info frame payload: a point-in-time snapshot of
// the serving layer's occupancy.
type ServerInfo struct {
	Server        string `json:"server"`
	Sessions      int    `json:"sessions"`
	Running       int    `json:"running"`
	Queued        int    `json:"queued"`
	MaxConcurrent int    `json:"max_concurrent"`
	Draining      bool   `json:"draining"`
}

// WireSpan is one trace span on the wire.
type WireSpan struct {
	ID        uint64
	Parent    uint64
	Server    string
	Name      string
	Detail    string
	StartUS   int64 // unix microseconds
	ElapsedUS int64 // span duration
}

// encodeSpans converts trace spans for the wire.
func encodeSpans(spans []telemetry.TraceSpan) []WireSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]WireSpan, len(spans))
	for i, sp := range spans {
		out[i] = WireSpan{
			ID: sp.SpanID, Parent: sp.ParentID,
			Server: sp.Server, Name: sp.Name, Detail: sp.Detail,
			StartUS:   sp.Start.UnixMicro(),
			ElapsedUS: sp.Elapsed.Microseconds(),
		}
	}
	return out
}

// decodeSpans converts wire spans back into trace spans.
func decodeSpans(spans []WireSpan) []telemetry.TraceSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]telemetry.TraceSpan, len(spans))
	for i, w := range spans {
		out[i] = telemetry.TraceSpan{
			SpanID: w.ID, ParentID: w.Parent,
			Server: w.Server, Name: w.Name, Detail: w.Detail,
			Start:   time.UnixMicro(w.StartUS),
			Elapsed: time.Duration(w.ElapsedUS) * time.Microsecond,
		}
	}
	return out
}

// WireCol is one result column.
type WireCol struct {
	Name string
	Kind uint8
}

// WireValue is one SQL value in a Frame's boxed Rows view. K is a
// one-letter kind tag; an empty K is SQL NULL.
type WireValue struct {
	K string // "", "b", "i", "f", "s", "d"
	I int64  // bool (0/1), int, date (days since epoch)
	F float64
	S string
}

// encodeValue converts an engine value into the boxed view.
func encodeValue(v sqltypes.Value) WireValue {
	switch v.Kind() {
	case sqltypes.KindBool:
		var i int64
		if v.Bool() {
			i = 1
		}
		return WireValue{K: "b", I: i}
	case sqltypes.KindInt:
		return WireValue{K: "i", I: v.Int()}
	case sqltypes.KindFloat:
		return WireValue{K: "f", F: v.Float()}
	case sqltypes.KindString:
		return WireValue{K: "s", S: v.Str()}
	case sqltypes.KindDate:
		return WireValue{K: "d", I: v.DateDays()}
	default:
		return WireValue{}
	}
}

// decodeValue converts a boxed-view value back to an engine value.
func decodeValue(w WireValue) (sqltypes.Value, error) {
	switch w.K {
	case "":
		return sqltypes.Null, nil
	case "b":
		return sqltypes.NewBool(w.I != 0), nil
	case "i":
		return sqltypes.NewInt(w.I), nil
	case "f":
		return sqltypes.NewFloat(w.F), nil
	case "s":
		return sqltypes.NewString(w.S), nil
	case "d":
		return sqltypes.NewDateDays(w.I), nil
	default:
		return sqltypes.Null, fmt.Errorf("server: unknown wire value kind %q", w.K)
	}
}

// wireRows boxes decoded rows into a Frame's Rows view.
func wireRows(rows []rowset.Row) [][]WireValue {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]WireValue, len(rows))
	for i, r := range rows {
		out[i] = make([]WireValue, len(r))
		for j, v := range r {
			out[i][j] = encodeValue(v)
		}
	}
	return out
}

// wireColumns loads a Frame's boxed Rows view into generic column vectors
// (WriteFrame's path to the one rows encoder).
func wireColumns(rows [][]WireValue) ([]rowset.Vec, []int, error) {
	if len(rows) == 0 {
		return nil, nil, nil
	}
	w := len(rows[0])
	if w == 0 {
		return nil, nil, fmt.Errorf("server: rows frame with zero-width rows")
	}
	if len(rows)*w > maxFrameValues {
		return nil, nil, fmt.Errorf("server: %d rows of %d values exceed the %d-value frame bound", len(rows), w, maxFrameValues)
	}
	cols := make([]rowset.Vec, w)
	for j := range cols {
		cols[j].ResetGeneric(len(rows))
	}
	idxs := make([]int, len(rows))
	for i, r := range rows {
		if len(r) != w {
			return nil, nil, fmt.Errorf("server: rows frame row %d has %d values, want %d", i, len(r), w)
		}
		for j, wv := range r {
			v, err := decodeValue(wv)
			if err != nil {
				return nil, nil, err
			}
			cols[j].SetValue(i, v)
		}
		idxs[i] = i
	}
	return cols, idxs, nil
}

// encodeCols converts a result-set shape.
func encodeCols(cols []schema.Column) []WireCol {
	out := make([]WireCol, len(cols))
	for i, c := range cols {
		out[i] = WireCol{Name: c.Name, Kind: uint8(c.Kind)}
	}
	return out
}

// decodeCols converts a wire shape back to schema columns.
func decodeCols(cols []WireCol) []schema.Column {
	out := make([]schema.Column, len(cols))
	for i, c := range cols {
		out[i] = schema.Column{Name: c.Name, Kind: sqltypes.Kind(c.Kind), Nullable: true}
	}
	return out
}

// appendFrame appends f's payload: its binary layout for a statement frame,
// one JSON object for a control frame.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	switch f.Type {
	case FrameQuery:
		return appendQuery(dst, f), nil
	case FrameCols:
		return appendCols(dst, f.QueryID, f.Cols), nil
	case FrameRows:
		cols, idxs, err := wireColumns(f.Rows)
		if err != nil {
			return dst, err
		}
		return appendRows(dst, f.QueryID, cols, idxs), nil
	case FrameDone:
		return appendDone(dst, f), nil
	}
	if !controlFrame(f.Type) {
		return dst, fmt.Errorf("server: unknown frame type %q", f.Type)
	}
	p, err := json.Marshal(f)
	if err != nil {
		return dst, fmt.Errorf("server: encoding %s frame: %w", f.Type, err)
	}
	return append(dst, p...), nil
}

// decodeFrame decodes one payload. A rows frame's rows are appended to dst
// (one backing value array per frame) and the extended slice is returned;
// its Frame carries no Rows.
func decodeFrame(p []byte, dst []rowset.Row) (*Frame, []rowset.Row, error) {
	if len(p) == 0 {
		return nil, dst, fmt.Errorf("server: empty frame")
	}
	if p[0] != '{' {
		return decodeBinary(p, dst)
	}
	f := &Frame{}
	if err := json.Unmarshal(p, f); err != nil {
		return nil, dst, fmt.Errorf("server: decoding frame: %w", err)
	}
	if !controlFrame(f.Type) {
		return nil, dst, fmt.Errorf("server: %q is not a JSON frame type", f.Type)
	}
	return f, dst, nil
}

// A frame on the wire is a 4-byte big-endian payload length, then the
// payload. Encoders append the payload to frameStart's placeholder prefix
// and sealFrame fills it in, so a frame goes out in one Write.
const prefixLen = 4

// frameStart resets buf to an unfilled length prefix.
func frameStart(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// sealFrame fills in the length prefix of a frame built on frameStart,
// rejecting a payload past MaxFrameBytes.
func sealFrame(buf []byte, typ string) error {
	n := len(buf) - prefixLen
	if n > MaxFrameBytes {
		return fmt.Errorf("server: %s frame of %d bytes exceeds the %d-byte frame bound", typ, n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return nil
}

// maxRetainedBuf caps the frame buffer a connection keeps for reuse between
// frames: a rare wide frame is paid for once, not pinned (up to
// MaxFrameBytes) for as long as the connection stays open.
const maxRetainedBuf = 256 << 10

// retainBuf returns buf for reuse, or nil if it grew past maxRetainedBuf.
func retainBuf(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf
}

// frameReader reads frames through one reused payload buffer (decoded
// frames copy everything they keep out of it).
type frameReader struct {
	br  *bufio.Reader
	buf []byte
	// queriesOnly marks the server's reader. The only binary frame a client
	// sends is query, so any other binary tag is refused before it is
	// decoded: a rows frame from a peer that has not even said hello must
	// not size an allocation.
	queriesOnly bool
}

// next reads one length-prefixed frame; a rows frame's rows are decoded
// onto dst.
func (fr *frameReader) next(dst []rowset.Row) (*Frame, []rowset.Row, error) {
	f, dst, err := fr.read(dst)
	fr.buf = retainBuf(fr.buf)
	return f, dst, err
}

func (fr *frameReader) read(dst []rowset.Row) (*Frame, []rowset.Row, error) {
	hdr, err := fr.br.Peek(prefixLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, dst, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameBytes {
		return nil, dst, fmt.Errorf("server: frame length %d exceeds the %d-byte frame bound", n, MaxFrameBytes)
	}
	_, _ = fr.br.Discard(prefixLen)
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return nil, dst, err
	}
	if fr.queriesOnly && n > 0 && fr.buf[0] != '{' && fr.buf[0] != tagQuery {
		return nil, dst, fmt.Errorf("server: a client may not send binary frame tag %#x", fr.buf[0])
	}
	return decodeFrame(fr.buf, dst)
}

// WriteFrame encodes and writes one length-prefixed frame. Callers
// serialize writes per connection themselves (sessions hold a write mutex:
// a streaming result and a concurrent error reply must not interleave).
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := appendFrame(frameStart(nil), f)
	if err == nil {
		err = sealFrame(buf, f.Type)
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame; a rows frame's rows come back
// boxed in Rows.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	f, rows, err := (&frameReader{br: r}).next(nil)
	if err != nil {
		return nil, err
	}
	f.Rows = wireRows(rows)
	return f, nil
}
