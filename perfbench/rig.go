package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/dist"
)

// distRig is one distributed run's transport: a 127.0.0.1 listener and
// workers running dist.Serve in this process, each over its own TCP
// connection, as two `massf -worker` processes would.
type distRig struct {
	cancel context.CancelFunc // stops the workers' dials and serves
	l      net.Listener
	conns  []dist.Conn // coordinator ends, in accept order
	errs   chan error  // one result per worker goroutine
	// running counts worker goroutines whose result is still unread.
	running int

	// Wrappers, present when the rig counts its traffic. workerWrap[i] is
	// written by worker goroutine i before it reports on errs.
	coordWrap  []*countingConn
	workerWrap []*countingConn
}

// openRig listens, starts n workers that dial in, and accepts them.
func openRig(ctx context.Context, n int, wrap bool) (*distRig, error) {
	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	r := &distRig{cancel: cancel, l: l, errs: make(chan error, n), running: n}
	if wrap {
		r.workerWrap = make([]*countingConn, n)
	}
	addr := l.Addr().String()
	for i := 0; i < n; i++ {
		go func(i int) {
			c, err := dist.Dial(ctx, addr)
			if err != nil {
				r.errs <- err
				return
			}
			if wrap {
				w := newCountingConn(c)
				r.workerWrap[i] = w
				c = w
			}
			defer c.Close()
			r.errs <- dist.Serve(ctx, c, dist.WorkerOptions{})
		}(i)
	}
	for i := 0; i < n; i++ {
		c, err := dist.Accept(ctx, l)
		if err != nil {
			r.abort()
			return nil, err
		}
		if wrap {
			w := newCountingConn(c)
			r.coordWrap = append(r.coordWrap, w)
			c = w
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// wait collects every worker's result and releases the transport. It
// returns the first worker error.
func (r *distRig) wait(ctx context.Context) error {
	var first error
	for r.running > 0 {
		select {
		case err := <-r.errs:
			r.running--
			if err != nil && first == nil {
				first = err
			}
		case <-ctx.Done():
			r.abort()
			return errors.Join(first, fmt.Errorf("workers did not finish: %w", ctx.Err()))
		}
	}
	r.cancel()
	r.closeConns()
	return first
}

// abort tears the rig down without a run: canceling stops the workers'
// dials, closing the coordinator ends fails their waits, and every worker
// goroutine still running is waited for.
func (r *distRig) abort() {
	r.cancel()
	r.closeConns()
	for ; r.running > 0; r.running-- {
		<-r.errs
	}
}

func (r *distRig) closeConns() {
	for _, c := range r.conns {
		c.Close()
	}
	r.l.Close()
}

// distStats sums a traced distributed run's wrapper counts.
type distStats struct {
	CoordSent, CoordRecv   int64
	WorkerSent, WorkerRecv int64
	WireBytes              int64 // payload bytes, both directions
	CoordWait              time.Duration
	WorkerBusyMax          time.Duration
	RTTs                   []time.Duration
	// FirstOp is the coordinator's first frame operation; FirstWindow its
	// first WINDOW frame.
	FirstOp, FirstWindow time.Time
}

// stats reads the wrappers; call it after wait.
func (r *distRig) stats() distStats {
	var d distStats
	for _, w := range r.coordWrap {
		s := w.stats()
		d.CoordSent += s.FramesSent
		d.CoordRecv += s.FramesRecv
		d.WireBytes += s.BytesSent + s.BytesRecv
		d.CoordWait += s.RecvWait
		d.RTTs = append(d.RTTs, s.RTTs...)
		if !s.FirstOp.IsZero() && (d.FirstOp.IsZero() || s.FirstOp.Before(d.FirstOp)) {
			d.FirstOp = s.FirstOp
		}
		if !s.FirstWindow.IsZero() && (d.FirstWindow.IsZero() || s.FirstWindow.Before(d.FirstWindow)) {
			d.FirstWindow = s.FirstWindow
		}
	}
	for _, w := range r.workerWrap {
		if w == nil {
			continue
		}
		s := w.stats()
		d.WorkerSent += s.FramesSent
		d.WorkerRecv += s.FramesRecv
		d.WorkerBusyMax = max(d.WorkerBusyMax, s.Busy)
	}
	return d
}
