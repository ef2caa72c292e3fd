package netsim

import (
	"context"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
)

// Metered wraps a rowset so that every fetch crossing it is charged to the
// link: one Call per batch the consumer fills, carrying that fill's rows
// and their encoded bytes — the IRowset::GetNextRows(cRows) contract, where
// the consumer's batch capacity is the fetch size. Providers wrap the
// rowsets they return to the DHQP with it. Calls run without a cancellation
// context; see MeteredCtx.
func Metered(rs rowset.Rowset, link *Link) rowset.Rowset {
	return MeteredCtx(context.Background(), rs, link)
}

// MeteredCtx is Metered with a context: the per-fetch link calls honor the
// context's cancellation/deadline and surface the link's injected faults as
// fetch errors.
func MeteredCtx(ctx context.Context, rs rowset.Rowset, link *Link) rowset.Rowset {
	if link == nil {
		return rs
	}
	return &meteredRowset{ctx: ctx, rs: rs, link: link}
}

type meteredRowset struct {
	ctx  context.Context
	rs   rowset.Rowset
	link *Link
	rows rowset.BatchRows // row-at-a-time consumers read out of its batch
}

func (m *meteredRowset) Columns() []schema.Column { return m.rs.Columns() }

// NextBatch implements rowset.BatchReader: one fetch, one round trip. A
// fetch crosses whole or not at all — when the call fails the batch's
// contents are not to be read. The end of the stream (an empty fetch)
// costs no call.
func (m *meteredRowset) NextBatch(b *rowset.Batch) error {
	if err := rowset.FillBatch(m.rs, b, nil); err != nil {
		return err
	}
	return m.link.Call(m.ctx, b.Len(), b.EncodedSize())
}

// Next serves rows out of default-sized fetches.
func (m *meteredRowset) Next() (rowset.Row, error) {
	if m.rows.B == nil {
		m.rows.B = rowset.NewBatch(0)
	}
	return m.rows.Next(m.NextBatch)
}

func (m *meteredRowset) Close() error { return m.rs.Close() }
