// Executor-side metric instruments. The engine fills one Instruments
// bundle per server and threads it through every statement's Context;
// all hooks are nil-safe, so the uninstrumented path costs a nil check.
package exec

import (
	"time"

	"dhqp/internal/metrics"
)

// Instruments bundles the executor's server-wide instruments. Distinct
// from Diagnostics, which is per-statement: these accumulate across the
// server's lifetime.
type Instruments struct {
	Retries       *metrics.Counter   // retried remote attempts
	BreakerTrips  *metrics.Counter   // circuit-breaker closed→open transitions
	Batches       *metrics.Counter   // vectorized batches drained at the root
	BatchRows     *metrics.Counter   // live rows in those batches (rows per batch = BatchRows / Batches)
	StartupPruned *metrics.Counter   // startup filters that kept their subtree closed
	StartupOpened *metrics.Counter   // startup filters that opened it
	Waits         *metrics.WaitTable // RETRY_BACKOFF wait point
}

// noteRetry records one retried remote attempt in both the statement's
// diagnostics and the server-wide counter.
func (c *Context) noteRetry(server string) {
	c.Diags.RecordRetry(server)
	if c.Ins != nil {
		c.Ins.Retries.Inc()
	}
}

// noteBackoff records time spent sleeping between retry attempts.
func (c *Context) noteBackoff(d time.Duration) {
	if c.Ins != nil {
		c.Ins.Waits.Record(metrics.WaitRetryBackoff, d)
	}
}
