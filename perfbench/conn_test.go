package main

import (
	"testing"
	"time"

	"repro/internal/dist"
)

func TestCountingConn(t *testing.T) {
	a, b := dist.Loopback()
	coord, worker := newCountingConn(a), newCountingConn(b)
	defer coord.Close()
	defer worker.Close()

	mustSend := func(c *countingConn, typ dist.MsgType, n int) {
		t.Helper()
		if err := c.Send(dist.Frame{Type: typ, Payload: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
	mustRecv := func(c *countingConn) {
		t.Helper()
		if _, err := c.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}

	mustSend(worker, dist.MsgHello, 3)
	mustRecv(coord) // no Send before it: no round trip
	mustSend(coord, dist.MsgEvents, 5)
	mustRecv(worker)
	time.Sleep(5 * time.Millisecond) // the worker's work on the frame
	mustSend(worker, dist.MsgVote, 7)
	mustRecv(coord)
	mustSend(coord, dist.MsgWindow, 11)
	mustSend(coord, dist.MsgWindow, 13)
	mustRecv(worker)
	mustRecv(worker)
	mustSend(worker, dist.MsgWindowDone, 17)
	mustRecv(coord)

	// A receive that times out counts as waiting, not as a frame.
	if _, err := coord.Recv(2 * time.Millisecond); err == nil {
		t.Fatal("Recv on an idle connection returned a frame")
	}

	c, w := coord.stats(), worker.stats()
	if c.FramesSent != 3 || c.FramesRecv != 3 || w.FramesSent != 3 || w.FramesRecv != 3 {
		t.Errorf("frames: coordinator sent %d received %d, worker sent %d received %d; want 3 each",
			c.FramesSent, c.FramesRecv, w.FramesSent, w.FramesRecv)
	}
	if c.BytesSent != 5+11+13 || c.BytesRecv != 3+7+17 {
		t.Errorf("coordinator bytes sent %d received %d, want 29 and 27", c.BytesSent, c.BytesRecv)
	}
	if w.BytesSent != c.BytesRecv || w.BytesRecv != c.BytesSent {
		t.Errorf("worker bytes sent %d received %d do not mirror the coordinator", w.BytesSent, w.BytesRecv)
	}
	// Round trips: EVENTS->VOTE and the second WINDOW->WINDOW_DONE; the
	// second Send of a pair replaces the first as the start.
	if len(c.RTTs) != 2 {
		t.Errorf("coordinator recorded %d round trips, want 2", len(c.RTTs))
	}
	if c.RTTs[0] < 5*time.Millisecond {
		t.Errorf("EVENTS->VOTE round trip %v is shorter than the worker's 5ms of work", c.RTTs[0])
	}
	if w.Busy < 5*time.Millisecond {
		t.Errorf("worker busy %v, want at least its 5ms of work", w.Busy)
	}
	if c.RecvWait < 2*time.Millisecond {
		t.Errorf("coordinator recv wait %v misses the 2ms timeout", c.RecvWait)
	}
	if c.FirstWindow.IsZero() || c.FirstWindow.Before(c.FirstOp) || !w.FirstWindow.IsZero() {
		t.Errorf("first WINDOW frame: coordinator %v (first op %v), worker %v", c.FirstWindow, c.FirstOp, w.FirstWindow)
	}
}
