package dist_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/mapping"
)

// TestDialNeverListeningReturnsCtxErr: an address nobody ever listens on must
// not retry forever — the backoff is capped at the context deadline and the
// dial returns the context's error promptly.
func TestDialNeverListeningReturnsCtxErr(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // the port is now dead: every dial gets refused

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = dist.Dial(ctx, addr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial of a dead address must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// "Promptly": the deadline was 400ms; anything past 2s means a retry
	// overshot the deadline instead of being capped by it.
	if elapsed > 2*time.Second {
		t.Fatalf("dial overshot its deadline: %v elapsed for a 400ms context", elapsed)
	}
}

// distSpec builds a minimal valid RunSpec for protocol-level tests that drive
// dist.Run directly with hand-crafted connections.
func distSpec(t *testing.T) *dist.RunSpec {
	t.Helper()
	sc := scenario(t, "Campus")
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := sc.Routes()
	if err != nil {
		t.Fatal(err)
	}
	return &dist.RunSpec{Cfg: emu.Config{
		Network:    sc.Network,
		Routes:     routes,
		Assignment: part,
		NumEngines: sc.Engines,
		Workload:   w,
	}}
}

// errorOnConn makes the worker report a fatal application error in place of
// its first frame of type on — the shape of a worker hitting a deterministic
// failure (bad alloc, assertion) rather than a transport fault.
type errorOnConn struct {
	dist.Conn
	on    dist.MsgType
	fired bool
}

func (c *errorOnConn) Send(f dist.Frame) error {
	if f.Type == c.on && !c.fired {
		c.fired = true
		return c.Conn.Send(dist.Frame{Type: dist.MsgError, Payload: dist.TextMsg{Text: "disk on fire"}.Encode()})
	}
	return c.Conn.Send(f)
}

// TestWorkerErrorFrameAbortsTyped: an ERROR frame is a deterministic worker
// fault — it would recur identically in a recovery replay, so the coordinator
// must abort the run with a typed error naming the worker, not degrade. The
// error replaces the opening VOTE, or the steady-state WINDOW_DONE.
func TestWorkerErrorFrameAbortsTyped(t *testing.T) {
	for _, on := range []dist.MsgType{dist.MsgVote, dist.MsgWindowDone} {
		t.Run(on.String(), func(t *testing.T) {
			errc := make(chan error, 1)
			go func() {
				ctx := context.Background()
				conns := make([]dist.Conn, 2)
				for i := range conns {
					c, s := dist.Loopback()
					if i == 1 {
						s = &errorOnConn{Conn: s, on: on}
					}
					conns[i] = c
					go dist.Serve(ctx, s, dist.WorkerOptions{})
				}
				sc := scenario(t, "Campus")
				_, err := sc.RunDistributed(ctx, mapping.Top, conns, dist.Options{})
				errc <- err
			}()
			select {
			case <-time.After(time.Minute):
				t.Fatal("ERROR frame wedged the coordinator")
			case err := <-errc:
				if err == nil {
					t.Fatal("a worker ERROR must fail the run")
				}
				if !errors.Is(err, dist.ErrWorkerFault) {
					t.Fatalf("want ErrWorkerFault, got %v", err)
				}
				if errors.Is(err, dist.ErrWorkerLost) {
					t.Fatalf("a reported fault is not a lost worker: %v", err)
				}
				if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "disk on fire") {
					t.Fatalf("error must name the worker and carry its message, got %v", err)
				}
			}
		})
	}
}

// TestTruncatedHelloFailsHandshake: a connection that dies mid-HELLO delivers
// a partial payload; the coordinator must fail the handshake with a decode
// error — typed as a lost worker — instead of stalling.
func TestTruncatedHelloFailsHandshake(t *testing.T) {
	c, s := dist.Loopback()
	go func() {
		h := dist.Hello{Version: dist.Version}.Encode()
		s.Send(dist.Frame{Type: dist.MsgHello, Payload: h[:1]})
	}()
	errc := make(chan error, 1)
	go func() {
		_, err := dist.Run(context.Background(), distSpec(t), []dist.Conn{c}, dist.Options{})
		errc <- err
	}()
	select {
	case <-time.After(30 * time.Second):
		t.Fatal("truncated HELLO stalled the handshake")
	case err := <-errc:
		if err == nil {
			t.Fatal("truncated HELLO must fail the handshake")
		}
		if !errors.Is(err, dist.ErrWorkerLost) {
			t.Fatalf("want ErrWorkerLost, got %v", err)
		}
	}
}

// TestTruncatedAssignFailsWorker: the worker side of the same cut — a partial
// ASSIGN must surface as a prompt decode error from Serve, not a stall.
func TestTruncatedAssignFailsWorker(t *testing.T) {
	c, s := dist.Loopback()
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(context.Background(), s, dist.WorkerOptions{}) }()
	if f, err := c.Recv(10 * time.Second); err != nil || f.Type != dist.MsgHello {
		t.Fatalf("expected HELLO from worker, got %v %v", f.Type, err)
	}
	if err := c.Send(dist.Frame{Type: dist.MsgAssign, Payload: []byte{0x01, 0x02}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-time.After(10 * time.Second):
		t.Fatal("truncated ASSIGN stalled the worker")
	case err := <-errc:
		if err == nil {
			t.Fatal("truncated ASSIGN must fail the worker")
		}
	}
}

// TestPeerCloseMidHandshakeErrorsPromptly: the peer vanishing entirely
// mid-handshake must error out of Serve quickly — the close is a signal, not
// a silence to wait out.
func TestPeerCloseMidHandshakeErrorsPromptly(t *testing.T) {
	c, s := dist.Loopback()
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(context.Background(), s, dist.WorkerOptions{}) }()
	if f, err := c.Recv(10 * time.Second); err != nil || f.Type != dist.MsgHello {
		t.Fatalf("expected HELLO from worker, got %v %v", f.Type, err)
	}
	start := time.Now()
	c.Close()
	select {
	case <-time.After(10 * time.Second):
		t.Fatal("peer close stalled the worker")
	case err := <-errc:
		if err == nil {
			t.Fatal("peer close must fail the worker")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("peer close took %v to surface", elapsed)
		}
	}
}
