package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Faults is a deterministic, seedable fault plan for a link. Every failure
// mode a wide-area deployment exhibits is reproducible from the seed: the
// same plan over the same call sequence injects the same faults, which is
// what makes retry and circuit-breaker behaviour testable and benchmarks
// repeatable.
type Faults struct {
	// Seed initializes the plan's private random source.
	Seed int64
	// TransientProb is the per-call probability of a transient failure
	// (connection blip, wire timeout). The call is charged its latency —
	// the round trip happened, it just failed — but ships no payload.
	TransientProb float64
	// FailAfter, when positive, fails every call after the first N calls
	// permanently (the server dies mid-workload).
	FailAfter int64
	// Down marks the server unreachable from the start (fail-forever).
	Down bool
	// SlowProb is the per-call probability of adding SlowBy of extra
	// latency (jitter/slowness injection).
	SlowProb float64
	// SlowBy is the extra delay a slow call pays.
	SlowBy time.Duration
}

// faultRunner is the seeded runtime state of a fault plan. The random
// source is guarded by its own mutex; the Link's traffic counters remain
// atomics.
type faultRunner struct {
	mu    sync.Mutex
	plan  Faults
	rng   *rand.Rand
	calls int64
	down  bool
}

// verdict is the fault decision for one call.
type verdict struct {
	down      bool
	transient bool
	extra     time.Duration
}

func (f *faultRunner) next() verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	v := verdict{}
	if f.down || (f.plan.FailAfter > 0 && f.calls > f.plan.FailAfter) {
		v.down = true
		return v
	}
	if f.plan.TransientProb > 0 && f.rng.Float64() < f.plan.TransientProb {
		v.transient = true
	}
	if f.plan.SlowProb > 0 && f.plan.SlowBy > 0 && f.rng.Float64() < f.plan.SlowProb {
		v.extra = f.plan.SlowBy
	}
	return v
}

// SetFaults installs (or replaces) the link's fault plan. A zero Faults
// value behaves like a healthy link but still pays the plan's bookkeeping;
// use ClearFaults to remove the plan entirely.
func (l *Link) SetFaults(f Faults) {
	l.fault.Store(&faultRunner{plan: f, rng: rand.New(rand.NewSource(f.Seed)), down: f.Down})
}

// ClearFaults removes the fault plan.
func (l *Link) ClearFaults() {
	l.fault.Store(nil)
}

// SetDown flips the link's fail-forever state at runtime (a server going
// down — or coming back, which is what lets a half-open circuit-breaker
// probe succeed). Installing a plan first is not required.
func (l *Link) SetDown(down bool) {
	f := l.fault.Load()
	if f == nil {
		l.SetFaults(Faults{Down: down})
		return
	}
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// TransientError is a simulated transient remote failure: the kind of error
// a retry may cure. oledb's error taxonomy recognizes it through the
// Transient method.
type TransientError struct {
	Msg string
}

// Error implements error.
func (e *TransientError) Error() string { return "netsim: " + e.Msg }

// Transient marks the error retryable.
func (e *TransientError) Transient() bool { return true }

// ErrDown reports an unreachable server. It is classified transient — a
// caller cannot distinguish a dead server from a long blip, which is
// exactly why a circuit breaker (not the retry ladder) must provide
// fail-fast behaviour for downed servers.
var ErrDown = errors.New("netsim: server unreachable")

// downError wraps ErrDown and marks it transient.
type downError struct{ calls int64 }

func (e *downError) Error() string {
	return fmt.Sprintf("netsim: server unreachable (call %d)", e.calls)
}
func (e *downError) Transient() bool { return true }
func (e *downError) Unwrap() error   { return ErrDown }

// sleepCtx sleeps for d, aborting early when the context is cancelled —
// the interruptible transfer that keeps a slow WAN link from blocking
// query cancellation and shutdown.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
