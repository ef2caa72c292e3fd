// Parallel exchange layer: the concurrent UNION ALL fan-out. The paper's
// federated scale-out workload (§4.1.5) unions independent member-server
// scans whose cost is dominated by link latency; driving them concurrently
// makes elapsed time track the slowest member instead of the sum of all
// members. The exchange is the executor's only concurrency: a remote
// rowset below it is read synchronously, one fetch per NextBatch, and a
// worker that hands a batch on starts the next fetch at once, so fetches
// overlap the consumer's work.

package exec

import (
	"io"
	"sync"

	"dhqp/internal/algebra"
	"dhqp/internal/rowset"
)

// The exchange's batch pool: one batch per worker to fill while another
// waits in the channel for the consumer, so producers stay busy while the
// consumer drains, up to a fixed budget. Every child is opened at once —
// an open is a round trip that brings the first fetch back, so a
// latency-bound fan-out pays one wave of round trips, not one per group of
// workers — but the batches its later fetches fill are drawn from the
// budget, so memory does not grow with the fan-out.
const (
	exchangeBatchesPerWorker = 2
	exchangeBatchBudget      = 16
)

// parItem is one exchange message: a remapped batch or a child's error.
type parItem struct {
	b   *rowset.Batch
	err error
}

// parallelConcatIter is UNION ALL over concurrent children: a worker per
// child (at most MaxDOP of them) drives the children a batch at a time, remaps each batch to
// the output column order by moving its vectors, and feeds a shared
// channel; the consumer takes a batch by swapping buffers with its own and
// hands the spent one back to the pool. Row order is interleaved
// arbitrarily — UNION ALL guarantees a multiset, and the optimizer's sort
// enforcer sits above the concat when the parent needs an ordering.
//
// Lifecycle invariants: every child a worker opens is closed exactly once
// (deferred in the worker); the first error cancels the siblings, which
// finish their in-flight call and exit; Open after partial consumption and
// Close both tear the previous run down completely, so no goroutines leak.
type parallelConcatIter struct {
	parent  *Context
	kids    []Iterator
	kidCtxs []*Context      // forked per child; nil entries share parent
	maps    [][]int         // per child: output position -> child position
	nodes   []*algebra.Node // per child: its plan, which names the branch in errors and skips
	dop     int

	pool    []*rowset.Batch // the exchange's batches, within exchangeBatchBudget
	ch      chan parItem
	free    chan *rowset.Batch // pool batches waiting for a fill
	cancel  chan struct{}
	running bool
	err     error // sticky first error
}

// newParallelConcat assembles the exchange over already-built children:
// a worker per child unless MaxDOP caps them.
func newParallelConcat(parent *Context, kids []Iterator, kidCtxs []*Context, maps [][]int, nodes []*algebra.Node) *parallelConcatIter {
	dop := len(kids)
	if parent.MaxDOP > 0 {
		dop = min(dop, parent.MaxDOP)
	}
	return &parallelConcatIter{parent: parent, kids: kids, kidCtxs: kidCtxs, maps: maps, nodes: nodes, dop: max(dop, 1)}
}

func (p *parallelConcatIter) Open() error {
	p.stop() // tear down a previous run (re-Open after partial consumption)
	p.err = nil
	// The children's contexts take this execution's fields and parameter
	// values: a parameterized parent (loop join) may have rebound values
	// since the last Open, and a kept tree runs under a new statement.
	for _, kctx := range p.kidCtxs {
		if kctx != nil && kctx != p.parent {
			kctx.inherit(p.parent)
		}
	}
	for len(p.pool) < min(p.dop*exchangeBatchesPerWorker, exchangeBatchBudget) {
		p.pool = append(p.pool, p.parent.newBatch())
	}
	p.cancel = make(chan struct{})
	// Both channels hold the whole pool, so handing a batch on never blocks
	// a worker, and handing one back never blocks the consumer.
	p.ch = make(chan parItem, len(p.pool))
	p.free = make(chan *rowset.Batch, len(p.pool))
	for _, b := range p.pool {
		p.free <- b
	}
	queue := make(chan int, len(p.kids))
	for i := range p.kids {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < p.dop; w++ {
		wg.Add(1)
		go p.worker(queue, p.ch, p.free, p.cancel, &wg)
	}
	// The channel closes once every worker has exited; NextBatch reads that
	// as EOF and stop's drain loop terminates on it.
	go func(ch chan parItem) {
		wg.Wait()
		close(ch)
	}(p.ch)
	p.running = true
	return nil
}

// worker drains child indices from the queue, streaming each child into the
// exchange channel until the queue empties, a child fails, or the exchange
// is cancelled.
func (p *parallelConcatIter) worker(queue chan int, ch chan parItem, free chan *rowset.Batch, cancel chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for idx := range queue {
		if p.runChild(idx, ch, free, cancel) {
			return
		}
	}
}

// runChild opens, streams, and closes one child. It reports whether the
// worker should stop (cancellation observed or the child errored). Branch
// errors carry the branch's server name so partial-failure diagnostics say
// which linked server failed; under partial-results execution a branch
// rejected by an open circuit breaker (before delivering any rows) is
// skipped — recorded, not fatal — and the worker moves on.
func (p *parallelConcatIter) runChild(idx int, ch chan parItem, free chan *rowset.Batch, cancel chan struct{}) (stop bool) {
	select {
	case <-cancel:
		return true
	default:
	}
	kid := p.kids[idx]
	if err := kid.Open(); err != nil {
		if skippableBranch(p.parent, err, 0) {
			recordSkip(p.parent, p.nodes[idx])
			return false
		}
		sendItem(ch, cancel, parItem{err: branchErr(idx, p.nodes[idx], err)})
		return true
	}
	defer kid.Close()
	sent := 0
	for {
		var b *rowset.Batch
		select {
		case b = <-free:
		case <-cancel:
			return true
		}
		err := kid.NextBatch(b)
		if err != nil {
			free <- b
			if err == io.EOF {
				return false
			}
			if skippableBranch(p.parent, err, sent) {
				recordSkip(p.parent, p.nodes[idx])
				return false
			}
			sendItem(ch, cancel, parItem{err: branchErr(idx, p.nodes[idx], err)})
			return true
		}
		sent += b.Len()
		b.Project(p.maps[idx])
		if sendItem(ch, cancel, parItem{b: b}) {
			return true
		}
	}
}

// sendItem delivers an item unless the exchange is cancelled first.
func sendItem(ch chan parItem, cancel chan struct{}, it parItem) (cancelled bool) {
	select {
	case ch <- it:
		return false
	case <-cancel:
		return true
	}
}

// NextBatch takes the next batch any child produced.
func (p *parallelConcatIter) NextBatch(b *rowset.Batch) error {
	if p.err != nil {
		return p.err
	}
	if !p.running {
		return io.EOF
	}
	it, ok := <-p.ch
	if !ok {
		return io.EOF
	}
	if it.err != nil {
		// First-error propagation: remember it, cancel the siblings and
		// wait for them to wind down before surfacing it.
		p.err = it.err
		p.stop()
		return it.err
	}
	b.Swap(it.b)
	p.free <- it.b
	return nil
}

func (p *parallelConcatIter) Close() error {
	p.stop()
	return nil
}

// stop cancels the workers and drains the channel until they have all
// exited (the closer goroutine closes it). After stop returns no exchange
// goroutine is live and every child a worker opened has been closed.
func (p *parallelConcatIter) stop() {
	if !p.running {
		return
	}
	close(p.cancel)
	for range p.ch {
	}
	p.running = false
}
