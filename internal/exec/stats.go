// Instrumented iterator shim: when stats collection is on, Build wraps
// every operator's iterator in a statsIter that records actual rows,
// Open/NextBatch call counts, and inclusive wall time into the execution's
// telemetry collector. The shim exists only on instrumented executions —
// with collection off (the default for Query) the iterator tree is exactly
// what it was before this layer existed.

package exec

import (
	"time"

	"dhqp/internal/rowset"
	"dhqp/internal/telemetry"
)

// statsIter decorates one operator's iterator with runtime counters.
// Retried remote calls do not double-count: the retry layer below discards
// a failed attempt's rows before they reach this shim, so ActualRows is
// exactly what the parent consumed.
type statsIter struct {
	child Iterator
	stats *telemetry.OpStats
}

func (s *statsIter) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.stats.RecordOpen(time.Since(start))
	return err
}

// NextBatch takes one wall-clock sample and one counter update per batch,
// and ActualRows stays exactly the rows the parent consumed.
func (s *statsIter) NextBatch(b *rowset.Batch) error {
	start := time.Now()
	err := s.child.NextBatch(b)
	n := 0
	if err == nil {
		n = b.Len()
	}
	s.stats.RecordNextBatch(time.Since(start), n)
	return err
}

func (s *statsIter) Close() error { return s.child.Close() }
