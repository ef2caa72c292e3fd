package circuit

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := New("srv", threshold, cooldown)
	clk := &fakeClock{t: time.Unix(0, 0)}
	b.SetClock(clk.now)
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		if b.Failure() {
			t.Fatalf("failure %d of 3 reported a trip", i+1)
		}
	}
	if b.State() != Closed {
		t.Fatalf("state after 2/3 failures = %v", b.State())
	}
	b.Allow()
	if !b.Failure() { // third consecutive failure trips it
		t.Error("the tripping failure did not report the trip")
	}
	if b.State() != Open {
		t.Fatalf("state after threshold = %v", b.State())
	}
	if b.Failure() {
		t.Error("a straggler failing on an open breaker reported a second trip")
	}
	err := b.Allow()
	if err == nil || !IsOpen(err) {
		t.Fatalf("open breaker Allow = %v, want OpenError", err)
	}
	if !IsOpen(fmt.Errorf("wrapped: %w", err)) {
		t.Error("IsOpen should see through wrapping")
	}
	if IsOpen(errors.New("other")) {
		t.Error("IsOpen false positive")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Failure()
		b.Allow()
		b.Failure()
		b.Allow()
		b.Success() // never three in a row
	}
	if b.State() != Closed {
		t.Fatalf("interleaved successes still tripped: %v", b.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.Allow()
	if !b.Failure() {
		t.Error("the first failure at threshold 1 did not report its trip")
	}
	if b.State() != Open {
		t.Fatal("threshold 1 should trip on first failure")
	}
	if err := b.Allow(); !IsOpen(err) {
		t.Fatalf("within cooldown Allow = %v", err)
	}
	clk.advance(time.Minute)
	// Single-flight: exactly one caller becomes the probe.
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state during probe = %v", b.State())
	}
	if err := b.Allow(); !IsOpen(err) {
		t.Fatalf("second caller during probe = %v, want fail-fast", err)
	}
	// Failed probe re-opens for another cooldown.
	if !b.Failure() {
		t.Error("the failed probe did not report its trip")
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v", b.State())
	}
	clk.advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed-again breaker rejected: %v", err)
	}
}

func TestBreakerProbeAborted(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Allow()
	b.Failure()
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	// The probe was cancelled before reaching the server: the slot frees
	// without a verdict and the next caller probes instead.
	b.ProbeAborted()
	if err := b.Allow(); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines; run with
// -race. The invariant checked is the Allow contract: every nil Allow gets
// exactly one verdict, and the counters stay consistent.
func TestBreakerConcurrent(t *testing.T) {
	b, clk := newTestBreaker(5, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := b.Allow(); err != nil {
					if !IsOpen(err) {
						t.Errorf("Allow error = %v", err)
					}
					continue
				}
				if (w+i)%3 == 0 {
					b.Failure()
				} else {
					b.Success()
				}
				if i%50 == 0 {
					clk.advance(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	b.State() // must not race
}
