package main

import (
	"sync"
	"time"

	"repro/internal/dist"
)

// countingConn wraps one end of a dist.Conn and counts what crosses it:
// frames and payload bytes in both directions, time blocked in Recv, the
// round trip from each Send to the next frame received, and the time from
// each received frame to the next Send (the peer's work in between).
type countingConn struct {
	dist.Conn

	mu                     sync.Mutex
	framesSent, framesRecv int64
	bytesSent, bytesRecv   int64
	recvWait               time.Duration
	busy                   time.Duration
	rtts                   []time.Duration
	firstOp, lastOp        time.Time
	firstWindow            time.Time

	lastSend, lastRecv       time.Time
	sendPending, recvPending bool
}

func newCountingConn(c dist.Conn) *countingConn { return &countingConn{Conn: c} }

func (c *countingConn) touch(now time.Time) {
	if c.firstOp.IsZero() {
		c.firstOp = now
	}
	c.lastOp = now
}

func (c *countingConn) Send(f dist.Frame) error {
	now := time.Now()
	c.mu.Lock()
	c.touch(now)
	if c.recvPending {
		c.busy += now.Sub(c.lastRecv)
		c.recvPending = false
	}
	if f.Type == dist.MsgWindow && c.firstWindow.IsZero() {
		c.firstWindow = now
	}
	c.mu.Unlock()

	err := c.Conn.Send(f)

	c.mu.Lock()
	if err == nil {
		c.framesSent++
		c.bytesSent += int64(len(f.Payload))
		c.lastSend, c.sendPending = time.Now(), true
	}
	c.mu.Unlock()
	return err
}

func (c *countingConn) Recv(timeout time.Duration) (dist.Frame, error) {
	start := time.Now()
	c.mu.Lock()
	c.touch(start)
	c.mu.Unlock()

	f, err := c.Conn.Recv(timeout)

	now := time.Now()
	c.mu.Lock()
	c.recvWait += now.Sub(start)
	c.lastOp = now
	if err == nil {
		c.framesRecv++
		c.bytesRecv += int64(len(f.Payload))
		if c.sendPending {
			c.rtts = append(c.rtts, now.Sub(c.lastSend))
			c.sendPending = false
		}
		c.lastRecv, c.recvPending = now, true
	}
	c.mu.Unlock()
	return f, err
}

// connStats is a consistent copy of a countingConn's counters.
type connStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	RecvWait, Busy         time.Duration
	RTTs                   []time.Duration
	FirstOp, LastOp        time.Time
	FirstWindow            time.Time
}

func (c *countingConn) stats() connStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return connStats{
		FramesSent: c.framesSent, FramesRecv: c.framesRecv,
		BytesSent: c.bytesSent, BytesRecv: c.bytesRecv,
		RecvWait: c.recvWait, Busy: c.busy,
		RTTs:    append([]time.Duration(nil), c.rtts...),
		FirstOp: c.firstOp, LastOp: c.lastOp, FirstWindow: c.firstWindow,
	}
}
