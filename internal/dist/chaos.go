package dist

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Chaos is a deterministic fault-injecting Conn wrapper for robustness
// testing: a seeded stream of drop / duplicate / delay / reorder decisions,
// plus an optional one-sided partition after a fixed number of sends. All
// decisions come from one seeded source under a mutex and no goroutines are
// spawned, so a test run with a given seed misbehaves identically every
// time. Dropped and mangled frames surface to the protocol as timeouts or
// unexpected-frame errors — the properties under test are that the run
// either converges to the canonical result (loss recovery) or returns a
// typed error, never hangs.
type ChaosConfig struct {
	// Seed drives every decision; runs with equal seeds inject identically.
	Seed int64
	// DropProb silently discards a sent frame.
	DropProb float64
	// DupProb sends a frame twice.
	DupProb float64
	// DelayProb sleeps MaxDelay×U[0,1) before a send (blocking the sender —
	// the protocol is lockstep, so a blocked send models a slow link).
	DelayProb float64
	// MaxDelay bounds an injected delay (default 10ms when DelayProb > 0).
	MaxDelay time.Duration
	// ReorderProb holds a frame back and emits it after the next one.
	ReorderProb float64
	// PartitionAfter, when > 0, drops every send after that many successful
	// ones — a one-sided partition: the peer's frames still arrive, ours
	// vanish.
	PartitionAfter int
}

type chaosConn struct {
	inner Conn
	cfg   ChaosConfig

	mu   sync.Mutex
	rng  *rand.Rand
	sent int
	held *Frame // reorder buffer: emitted after the next send
}

// NewChaosConn wraps a Conn with deterministic fault injection on its send
// side. Wrap one side (or both, with different seeds) of a Loopback or TCP
// pair.
func NewChaosConn(inner Conn, cfg ChaosConfig) Conn {
	if cfg.DelayProb > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	return &chaosConn{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (c *chaosConn) Send(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.cfg.PartitionAfter > 0 && c.sent >= c.cfg.PartitionAfter {
		return nil // one-sided partition: swallow silently
	}
	if c.cfg.DelayProb > 0 && c.rng.Float64() < c.cfg.DelayProb {
		time.Sleep(time.Duration(c.rng.Float64() * float64(c.cfg.MaxDelay)))
	}
	if c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb {
		c.sent++
		return nil
	}
	if c.held != nil {
		// A held frame jumps the queue decision: emit the new frame first,
		// then the held one — a two-frame reorder.
		held := *c.held
		c.held = nil
		if err := c.inner.Send(f); err != nil {
			return err
		}
		c.sent++
		return c.inner.Send(held)
	}
	if c.cfg.ReorderProb > 0 && c.rng.Float64() < c.cfg.ReorderProb {
		cp := f
		cp.Payload = append([]byte(nil), f.Payload...)
		c.held = &cp
		c.sent++
		return nil
	}
	if err := c.inner.Send(f); err != nil {
		return err
	}
	c.sent++
	if c.cfg.DupProb > 0 && c.rng.Float64() < c.cfg.DupProb {
		return c.inner.Send(f)
	}
	return nil
}

func (c *chaosConn) Recv(timeout time.Duration) (Frame, error) { return c.inner.Recv(timeout) }
func (c *chaosConn) Close() error                              { return c.inner.Close() }
func (c *chaosConn) Label() string {
	return fmt.Sprintf("chaos(seed=%d) %s", c.cfg.Seed, c.inner.Label())
}
