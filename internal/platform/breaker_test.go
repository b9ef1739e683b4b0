package platform

import (
	"errors"
	"testing"
	"time"
)

// testClock is an injectable clock for breaker tests.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *testClock) {
	clk := &testClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("attempt %d refused while closed: %v", i, err)
		}
		b.record(false)
	}
	if b.currentState() != BreakerClosed {
		t.Fatalf("state = %v after 2/3 failures", b.currentState())
	}
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	b.record(false) // third consecutive failure
	if b.currentState() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.currentState())
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 10; i++ {
		_ = b.allow()
		b.record(false)
		_ = b.allow()
		b.record(true) // success between failures: never 3 in a row
	}
	if b.currentState() != BreakerClosed {
		t.Fatalf("state = %v, want closed — successes must reset the count", b.currentState())
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	_ = b.allow()
	b.record(false) // opens
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("must refuse during cooldown")
	}
	clk.advance(time.Second)
	// First caller after the cooldown becomes the probe...
	if err := b.allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if b.currentState() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.currentState())
	}
	// ...and everyone else is still refused while the probe is in flight.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe success closes the circuit.
	b.record(true)
	if b.currentState() != BreakerClosed {
		t.Fatalf("state = %v after successful probe", b.currentState())
	}
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	_ = b.allow()
	b.record(false) // opens
	clk.advance(time.Second)
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	b.record(false) // probe fails: back to open, cooldown restarts
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("reopened breaker admitted a call")
	}
	clk.advance(999 * time.Millisecond)
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("cooldown did not restart after the failed probe")
	}
	clk.advance(time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe refused after full cooldown: %v", err)
	}
}

func TestBreakerStateString(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestClientWithoutBreakerReportsClosed(t *testing.T) {
	c := NewClient("http://localhost:0", WithConfig(ClientConfig{}))
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("state = %v", got)
	}
}
