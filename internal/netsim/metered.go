package netsim

import (
	"context"
	"io"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
)

// Metered wraps a rowset, read a batch at a time, so that every fetch
// crossing it is charged to the link: one Call per batch the consumer
// fills, carrying that fill's rows and their encoded bytes — the
// IRowset::GetNextRows(cRows) contract, where the consumer's batch
// capacity is the fetch size. The round trip that opens the rowset is the
// first fetch's: it is charged even when it finds the rowset empty, so n
// rows cost max(1, ⌈n / fetch⌉) calls. Providers wrap the rowsets they
// return to the DHQP with it. Calls run without a cancellation context;
// see MeteredCtx.
func Metered(rs rowset.Rowset, link *Link) rowset.Rowset {
	return MeteredCtx(context.Background(), rs, link, 0)
}

// MeteredCtx is Metered with a context and a request: the per-fetch link
// calls honor the context's cancellation/deadline and surface the link's
// injected faults as fetch errors, and the first fetch's round trip also
// carries reqBytes out (the statement text and parameters of a command).
// With no link a rowset passes through unchanged.
func MeteredCtx(ctx context.Context, rs rowset.Rowset, link *Link, reqBytes int) rowset.Rowset {
	if link == nil {
		return rs
	}
	return &meteredRowset{ctx: ctx, rs: rs, link: link, req: reqBytes}
}

type meteredRowset struct {
	ctx    context.Context
	rs     rowset.Rowset
	link   *Link
	req    int  // bytes the opening round trip carries out
	opened bool // the first fetch's round trip has been made
}

func (m *meteredRowset) Columns() []schema.Column { return m.rs.Columns() }

// NextBatch implements rowset.Rowset: one fetch, one round trip. A
// fetch crosses whole or not at all — when the call fails the batch's
// contents are not to be read. The first fetch is the round trip that
// opens the rowset and is charged even when it comes back empty; a later
// empty fetch, which only finds the end of the stream, costs no call.
func (m *meteredRowset) NextBatch(b *rowset.Batch) error {
	err := m.rs.NextBatch(b)
	rows, bytes := 0, 0
	switch {
	case err == nil:
		rows, bytes = b.Len(), b.EncodedSize()
	case err != io.EOF || m.opened:
		return err
	}
	if !m.opened {
		m.opened = true
		bytes += m.req
	}
	if cerr := m.link.Call(m.ctx, rows, bytes); cerr != nil {
		return cerr
	}
	return err
}

func (m *meteredRowset) Close() error { return m.rs.Close() }
