// Package circuit implements a per-linked-server circuit breaker: after K
// consecutive transient failures the breaker opens and calls to the server
// fail fast — no connection attempt, no retry ladder — until a cooldown
// elapses and a single half-open probe is allowed through. The probe's
// outcome decides between closing the breaker (server recovered) and
// re-opening it for another cooldown.
//
// The state machine is the classic closed → open → half-open triangle; the
// one subtlety is that the half-open probe is single-flight: under a
// parallel exchange many branches may hit the same downed server at once,
// and exactly one of them may pay the probe's round trip while the rest
// fail fast.
package circuit

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a breaker's position in the state machine.
type State int

// Breaker states.
const (
	// Closed passes calls through, counting consecutive failures.
	Closed State = iota
	// Open fails every call fast until the cooldown elapses.
	Open
	// HalfOpen lets exactly one probe through; everyone else fails fast.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// OpenError is the fail-fast rejection of a call to a server whose breaker
// is open. It implements the CircuitOpen marker oledb.Classify recognizes,
// so the retry layer never ladders on it and partial-results execution can
// skip the branch.
type OpenError struct {
	// Server names the linked server whose breaker rejected the call.
	Server string
}

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("circuit: breaker for server %s is open (failing fast)", e.Server)
}

// CircuitOpen marks the error as a local breaker rejection.
func (e *OpenError) CircuitOpen() bool { return true }

// IsOpen reports whether the error (anywhere in its chain) is a breaker
// rejection.
func IsOpen(err error) bool {
	var oe *OpenError
	return errors.As(err, &oe)
}

// Breaker is one server's circuit. Safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	server    string
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open duration before a half-open probe
	now       func() time.Time

	state       State
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
}

// New returns a closed breaker for the named server. threshold is the
// number of consecutive failures that trips it; cooldown is how long it
// stays open before allowing a probe.
func New(server string, threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{server: server, threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock injects a time source (tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// Allow reports whether a call to the server may proceed: nil from a closed
// breaker or for the single half-open probe, an *OpenError otherwise. A
// caller that receives nil MUST report the call's outcome via Success or
// Failure — the half-open probe slot stays taken until it does.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			b.probing = true
			return nil // this caller is the probe
		}
		return &OpenError{Server: b.server}
	default: // HalfOpen
		if b.probing {
			return &OpenError{Server: b.server}
		}
		b.probing = true
		return nil
	}
}

// Success records a successful call: the breaker closes and the failure
// streak resets (a half-open probe succeeding is the recovery path).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.consecutive = 0
	b.probing = false
}

// Failure records a failed call and reports whether it tripped the breaker.
// In the closed state it extends the streak and trips the breaker at the
// threshold; a failed half-open probe re-opens immediately for another
// cooldown. Exactly one call reports each trip, so the statement that
// caused it can be charged with it.
func (b *Breaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		tripped = true
	case Closed:
		b.consecutive++
		tripped = b.consecutive >= b.threshold
	default: // Open: a straggler finishing after the trip; nothing to do.
	}
	if tripped {
		b.state = Open
		b.openedAt = b.now()
	}
	return tripped
}

// ProbeAborted releases a half-open probe slot without a health verdict:
// the probe call was interrupted by the caller's own cancellation (or never
// reached the server), so neither Success nor Failure applies and the next
// caller may probe instead.
func (b *Breaker) ProbeAborted() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// State reports the current state (cooldown expiry is observed lazily by
// Allow, so an open breaker past its cooldown still reports Open here).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
