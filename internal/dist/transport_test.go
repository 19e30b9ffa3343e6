package dist

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/emu"
)

// tcpPair connects a tcpConn to a raw socket over 127.0.0.1, so a test can
// write arbitrary byte sequences at the framed side.
func tcpPair(t *testing.T) (*tcpConn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, aerr := l.Accept()
		if aerr != nil {
			c = nil
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := <-accepted
	if c == nil {
		t.Fatal("accept failed")
	}
	framed := NewTCPConn(c).(*tcpConn)
	t.Cleanup(func() {
		framed.Close()
		raw.Close()
	})
	return framed, raw
}

// discard drains c without allocating until it closes.
func discard(c net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// windowFrame is a WINDOW frame the size a barrier ships on a busy window.
func windowFrame() Frame {
	evs := make([]emu.WireEvent, 8)
	for i := range evs {
		evs[i] = emu.WireEvent{Time: 1.5 + float64(i), Dst: int32(i % 3), Src: 1, SrcIdx: int32(i), Kind: emu.WireChunk, Flow: 7, Packets: 3, Bytes: 4500}
	}
	return Frame{Type: MsgWindow, Payload: Window{Start: 1, End: 1.5, Events: evs}.Encode()}
}

// TestRecvTimeoutMidFrameKeepsStream: the coordinator's heartbeat waits and
// the worker's recvCmd slices retry a Recv that timed out. A timeout that
// lands partway through a frame must keep the bytes already read, so the
// retry completes that frame instead of parsing the next one from the
// middle of the stream.
func TestRecvTimeoutMidFrameKeepsStream(t *testing.T) {
	want := windowFrame()
	full := frameBytes(t, want)
	for _, cut := range []int{2, frameHeader + 10} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			framed, raw := tcpPair(t)
			if _, err := raw.Write(full[:cut]); err != nil {
				t.Fatal(err)
			}
			if _, err := framed.Recv(50 * time.Millisecond); err == nil || !isTimeout(err) {
				t.Fatalf("want a timeout on a partial frame, got %v", err)
			}
			if _, err := raw.Write(full[cut:]); err != nil {
				t.Fatal(err)
			}
			// A second frame right behind proves the stream stays aligned.
			if _, err := raw.Write(frameBytes(t, Frame{Type: MsgBye})); err != nil {
				t.Fatal(err)
			}
			got, err := framed.Recv(5 * time.Second)
			if err != nil {
				t.Fatalf("retry after a mid-frame timeout: %v", err)
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("retry read %s (%d bytes), want %s (%d bytes)", got.Type, len(got.Payload), want.Type, len(want.Payload))
			}
			if f, err := framed.Recv(5 * time.Second); err != nil || f.Type != MsgBye {
				t.Fatalf("next frame: got %s, %v; want BYE", f.Type, err)
			}
		})
	}
}

// TestTCPSendSteadyStateNoAllocs: once its buffer is warm, sending a
// WINDOW-sized frame allocates nothing — header and payload go out in one
// Write from the connection's own buffer.
func TestTCPSendSteadyStateNoAllocs(t *testing.T) {
	framed, raw := tcpPair(t)
	go discard(raw)
	f := windowFrame()
	if allocs := testing.AllocsPerRun(200, func() {
		if err := framed.Send(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("tcpConn.Send allocates %.1f times per %d-byte frame, want 0", allocs, len(f.Payload))
	}
}

// TestTCPWriteBufferBounded: a frame larger than maxKeptWriteBuf leaves with
// its buffer released, so one ASSIGN or STATE frame does not pin its size
// for the rest of the run.
func TestTCPWriteBufferBounded(t *testing.T) {
	framed, raw := tcpPair(t)
	go discard(raw)
	if err := framed.Send(windowFrame()); err != nil {
		t.Fatal(err)
	}
	if framed.wbuf == nil {
		t.Fatal("a small frame's buffer must be kept for reuse")
	}
	if err := framed.Send(Frame{Type: MsgState, Payload: make([]byte, maxKeptWriteBuf+1)}); err != nil {
		t.Fatal(err)
	}
	if framed.wbuf != nil {
		t.Fatalf("a %d-byte write buffer was kept, bound is %d", cap(framed.wbuf), maxKeptWriteBuf)
	}
}
