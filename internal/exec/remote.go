// Fault-tolerant remote access: every remote call the executor makes —
// shipping a statement or opening a rowset (one round trip that brings the
// first fetch back), a later fetch, a bookmark batch — passes through a
// retry-with-backoff loop gated by the server's circuit breaker. Only
// errors classified transient (oledb.Classify) are retried; retries are
// idempotent-safe because they re-execute the statement and discard the
// failed attempt's partial rowset — a broken rowset is never resumed
// mid-stream.

package exec

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dhqp/internal/circuit"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/telemetry"
)

// Retry defaults: four attempts with a sub-millisecond base keep the
// ladder fast on the simulated links while still surviving double-digit
// transient fault rates; the cap bounds the exponential growth.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBackoff  = 200 * time.Microsecond
	maxRetryBackoff      = 20 * time.Millisecond
)

// canceled reports the statement context's error, if it has one.
func (c *Context) canceled() error {
	if c.Ctx != nil {
		return c.Ctx.Err()
	}
	return nil
}

// sessionFor resolves the server's session and, when the statement has a
// deadline context and the session supports it, binds the context to the
// session view used for this execution.
func (c *Context) sessionFor(server string) (oledb.Session, error) {
	sess, err := c.RT.SessionFor(server)
	if err != nil {
		return nil, err
	}
	if c.Ctx != nil {
		if cs, ok := sess.(oledb.ContextSession); ok {
			sess = cs.WithContext(c.Ctx)
		}
	}
	return sess, nil
}

// breakerOf resolves the server's circuit breaker (nil = none).
func (c *Context) breakerOf(server string) *circuit.Breaker {
	if c.BreakerFor == nil || server == "" {
		return nil
	}
	return c.BreakerFor(server)
}

// failed reports a transient failure to the server's breaker (nil = none)
// and charges the statement with the trip if this failure caused one.
func (c *Context) failed(br *circuit.Breaker, server string) {
	if br != nil && br.Failure() {
		c.Stats.RecordTrip(server)
	}
}

func (c *Context) retryAttempts() int {
	if c.RetryAttempts > 0 {
		return c.RetryAttempts
	}
	return DefaultRetryAttempts
}

// backoffWait sleeps the exponential-backoff-with-full-jitter delay before
// retry attempt a (0-based count of completed attempts), honoring the
// statement context.
func (c *Context) backoffWait(a int) error {
	base := c.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	ceil := base << uint(a)
	if ceil > maxRetryBackoff {
		ceil = maxRetryBackoff
	}
	d := time.Duration(rand.Int63n(int64(ceil) + 1))
	if d <= 0 {
		return c.canceled()
	}
	defer func(start time.Time) { c.Stats.RecordBackoff(time.Since(start)) }(time.Now())
	if c.Ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.Ctx.Done():
		return c.Ctx.Err()
	}
}

// withRetry runs one remote operation under the server's breaker and the
// context's retry budget. fn is re-invoked whole on transient failures —
// never resumed — with exponential backoff between attempts. Transient
// failures count against the breaker; successes reset it; permanent
// errors, cancellation and breaker rejections pass through untouched.
func (c *Context) withRetry(server string, fn func() error) error {
	attempts := c.retryAttempts()
	br := c.breakerOf(server)
	var err error
	for a := 0; a < attempts; a++ {
		if cerr := c.canceled(); cerr != nil {
			return cerr
		}
		if br != nil {
			if berr := br.Allow(); berr != nil {
				return fmt.Errorf("exec: server %s: %w", server, berr)
			}
		}
		err = fn()
		if err == nil {
			if br != nil {
				br.Success()
			}
			return nil
		}
		switch oledb.Classify(err) {
		case oledb.ClassTransient:
			c.failed(br, server)
		case oledb.ClassCancelled, oledb.ClassCircuitOpen:
			// The caller's own deadline, or a rejection before the server
			// was reached: no verdict on the server's health. Release any
			// half-open probe slot Allow handed us so the next caller may
			// probe.
			if br != nil {
				br.ProbeAborted()
			}
			return err
		default:
			// Permanent error: reached the server and got a logic error —
			// the server is healthy. Reset its streak.
			if br != nil {
				br.Success()
			}
			return err
		}
		if a < attempts-1 {
			c.Stats.RecordRetry(server)
			if werr := c.backoffWait(a); werr != nil {
				return werr
			}
		}
	}
	return fmt.Errorf("exec: server %s: %d attempts exhausted: %w", server, attempts, err)
}

// retryRowset is a remote rowset, read a fetch at a time, with
// restart-and-discard recovery: when a fetch fails with a transient error,
// it closes the broken rowset, re-executes the statement (through the same
// breaker + retry gate), fetches and discards the rows already delivered
// downstream, and resumes. A fetch is delivered whole or not at all, so
// the delivered count always stands at a fetch boundary. The discipline is
// sound because the simulated providers are deterministic: re-executing
// the same statement against the same snapshot returns the same rows in
// the same order, cut into the same fetches. A replay that does not come
// back to that boundary is reported as a permanent error rather than
// papered over.
//
// The round trip that opens the rowset brings its first fetch back, so the
// open takes that fetch inside the retry scope: losing it costs one
// attempt, like losing the open itself, and the first NextBatch hands the
// held batch over instead of fetching.
type retryRowset struct {
	ctx    *Context
	server string
	what   string
	open   rowsetOpener

	rs        rowset.Rowset
	first     *rowset.Batch // the open's fetch, until NextBatch hands it over
	firstErr  error         // io.EOF when the open found the rowset empty
	delivered int64
}

// rowsetOpener opens a provider rowset in a session; a retry opens it
// again.
type rowsetOpener interface {
	openRowset(sess oledb.Session) (rowset.Rowset, error)
}

// openRemoteRowset opens a remote rowset fault-tolerantly. The opener runs
// against a fresh context-bound session view on every attempt; the returned
// rowset recovers from mid-stream transients by re-executing it, and fetches
// only when its consumer asks for a batch.
//
// Under a traced statement each remote open records a "remote call"
// span, and the span's context rides into the session — an in-process
// member joining the trace nests its own statement span under it, which
// is what assembles the cross-member span tree.
func openRemoteRowset(ctx *Context, server, what string, open rowsetOpener) (*retryRowset, error) {
	if server != "" {
		if sctx, end := telemetry.StartSpan(ctx.Ctx, ctx.Server, "remote "+what, server); sctx != ctx.Ctx {
			spanned := *ctx
			spanned.Ctx = sctx
			ctx = &spanned
			defer end()
		}
	}
	r := &retryRowset{ctx: ctx, server: server, what: what, open: open}
	if err := r.reopen(nil, 0); err != nil {
		return nil, err
	}
	return r, nil
}

// reopen (re-)executes the statement and takes its first fetch. A first
// open (discard 0) holds that fetch for NextBatch. A replay counts it
// toward the rows already delivered downstream and fetches past the rest,
// using b (the consumer's batch, so the replay cuts the same fetches) as
// scratch.
func (r *retryRowset) reopen(b *rowset.Batch, discard int64) error {
	return r.ctx.withRetry(r.server, func() error {
		sess, err := r.ctx.sessionFor(r.server)
		if err != nil {
			return err
		}
		rs, err := r.open.openRowset(sess)
		if err != nil {
			return err
		}
		// Not newBatch: the open's batch is handed over by swapping, so
		// it is the consumer's spent one that this rowset drops.
		first := rowset.NewBatch(r.ctx.BatchSize)
		if err = rowset.FillBatch(rs, first, nil); err != nil && err != io.EOF {
			rs.Close()
			return err
		}
		if discard == 0 {
			r.rs, r.first, r.firstErr = rs, first, err
			return nil
		}
		skipped := int64(first.Len())
		for err == nil && skipped < discard {
			if err = rowset.FillBatch(rs, b, nil); err == nil {
				skipped += int64(b.Len())
			} else if err != io.EOF {
				rs.Close()
				return err
			}
		}
		if skipped != discard {
			rs.Close()
			return fmt.Errorf("exec: %s on %s: replay returned %d rows, %d already delivered (non-deterministic source?)", r.what, r.server, skipped, discard)
		}
		r.rs = rs
		return nil
	})
}

// NextBatch implements rowset.BatchReader: the open's fetch first, then
// one fetch per call.
func (r *retryRowset) NextBatch(b *rowset.Batch) error {
	for {
		var err error
		if first := r.first; first != nil {
			r.first = nil
			if err = r.firstErr; err == nil {
				b.Swap(first)
			}
		} else {
			err = rowset.FillBatch(r.rs, b, nil)
		}
		if err == nil {
			r.delivered += int64(b.Len())
			return nil
		}
		if err == io.EOF || !oledb.IsTransient(err) {
			return err
		}
		// Transient mid-stream: the broken attempt counts against the
		// breaker, then the statement re-executes from scratch.
		r.ctx.failed(r.ctx.breakerOf(r.server), r.server)
		r.ctx.Stats.RecordRetry(r.server)
		r.rs.Close()
		if rerr := r.reopen(b, r.delivered); rerr != nil {
			return fmt.Errorf("exec: %s on %s: %w", r.what, r.server, rerr)
		}
	}
}

func (r *retryRowset) Close() error { return r.rs.Close() }
