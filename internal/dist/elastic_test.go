package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mapping"
)

// elasticWorker is one in-process worker with a drain trigger.
type elasticWorker struct {
	drain chan struct{}
	errc  chan error
}

func startElasticWorker(ctx context.Context, s dist.Conn) *elasticWorker {
	w := &elasticWorker{drain: make(chan struct{}), errc: make(chan error, 1)}
	go func() { w.errc <- dist.Serve(ctx, s, dist.WorkerOptions{Drain: w.drain}) }()
	return w
}

func (w *elasticWorker) wait(t *testing.T, name string) {
	t.Helper()
	select {
	case err := <-w.errc:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("%s did not exit", name)
	}
}

// elasticCkpt is the checkpoint cadence every elastic test runs with: small
// enough that a 10-second scenario crosses several membership barriers.
const elasticCkpt = 2.0

// TestElasticJoinDrainMatchesReplay: start 2 workers, join a third mid-run,
// drain the first — and require the distributed result to be byte-identical
// to the in-process replay of the recorded membership log. The join is
// preloaded and the drain is requested before the run starts, so both changes
// deterministically land at the first checkpoint barrier: the active engine
// set genuinely changes (slots {0,1} → {1,2}).
func TestElasticJoinDrainMatchesReplay(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()

			conns := make([]dist.Conn, 2)
			workers := make([]*elasticWorker, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				workers[i] = startElasticWorker(ctx, s)
			}
			jc, js := dist.Loopback()
			joiner := startElasticWorker(ctx, js)
			joins := make(chan dist.Conn, 1)
			joins <- jc
			close(workers[0].drain)

			sc := scenario(t, topology)
			o, mlog, err := sc.RunElastic(ctx, conns, dist.ElasticOptions{
				Options: dist.Options{CheckpointEvery: elasticCkpt},
				Joins:   joins,
			})
			if err != nil {
				t.Fatalf("elastic run: %v", err)
			}
			workers[0].wait(t, "drained worker")
			workers[1].wait(t, "worker 1")
			joiner.wait(t, "joiner")

			if len(mlog.Losses) != 0 {
				t.Fatalf("clean join/drain run recorded losses: %v", mlog.Losses)
			}
			if len(mlog.Resizes) != 1 {
				t.Fatalf("join+drain at the first barrier must be one resize, got %d: %+v",
					len(mlog.Resizes), mlog.Resizes)
			}
			rz := mlog.Resizes[0]
			if !reflect.DeepEqual(rz.Engines, []int{1, 2}) {
				t.Fatalf("post-resize active set must be engines {1,2}, got %v", rz.Engines)
			}
			m := o.Result.Membership
			if m == nil || len(m.Resizes) != 1 {
				t.Fatalf("result must carry the membership record, got %+v", m)
			}
			if o.Result.Kernel.TotalCharges() == 0 {
				t.Fatal("empty run proves nothing")
			}

			ref, err := scenario(t, topology).ReplayElastic(ctx, o.Assignment, mlog, elasticCkpt)
			if err != nil {
				t.Fatalf("in-process replay: %v", err)
			}
			want, got := canonical(t, ref), canonical(t, o.Result)
			if !bytes.Equal(want, got) {
				t.Fatalf("elastic distributed result diverges from in-process replay (%d vs %d bytes):\nreplay: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
		})
	}
}

// dieAtConn cuts the coordinator→worker link at the first window starting at
// or after a virtual time — a worker killed mid-run, timed against the
// emulation clock so it deterministically lands after the first membership
// barrier.
type dieAtConn struct {
	dist.Conn
	at float64
}

func (d *dieAtConn) Send(f dist.Frame) error {
	if f.Type == dist.MsgWindow {
		if w, err := dist.DecodeWindow(f.Payload); err == nil && w.Start >= d.at {
			return errInjectedLink
		}
	}
	return d.Conn.Send(f)
}

// TestElasticJoinKillMatchesReplay: start 2 workers, join a third at the
// first checkpoint barrier, then kill a worker at t≈3 — the run must degrade
// through the recovery replay and still match the in-process replay of its
// own membership log byte for byte.
func TestElasticJoinKillMatchesReplay(t *testing.T) {
	for _, topology := range []string{"Campus", "TeraGrid"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				startElasticWorker(ctx, s)
			}
			conns[1] = &dieAtConn{Conn: conns[1], at: 3}
			jc, js := dist.Loopback()
			startElasticWorker(ctx, js)
			joins := make(chan dist.Conn, 1)
			joins <- jc

			sc := scenario(t, topology)
			o, mlog, err := sc.RunElastic(ctx, conns, dist.ElasticOptions{
				Options: dist.Options{CheckpointEvery: elasticCkpt},
				Joins:   joins,
			})
			if err != nil {
				t.Fatalf("worker loss must degrade, not fail: %v", err)
			}
			if len(mlog.Resizes) == 0 {
				t.Fatal("the join never applied: kill at t=3 should follow the t=2 barrier")
			}
			if len(mlog.Losses) == 0 {
				t.Fatal("the kill was never recorded")
			}
			for _, l := range mlog.Losses {
				if l.At <= mlog.Resizes[len(mlog.Resizes)-1].At {
					t.Fatalf("recorded loss at t=%g precedes the last resize at t=%g",
						l.At, mlog.Resizes[len(mlog.Resizes)-1].At)
				}
			}
			if o.Result.Recovery == nil {
				t.Fatal("degraded run must report Recovery")
			}
			for v, e := range o.Result.FinalAssignment {
				for _, dead := range o.Result.Recovery.DeadEngines {
					if e == dead {
						t.Fatalf("node %d still assigned to dead engine %d", v, e)
					}
				}
			}

			ref, err := scenario(t, topology).ReplayElastic(ctx, o.Assignment, mlog, elasticCkpt)
			if err != nil {
				t.Fatalf("in-process replay: %v", err)
			}
			want, got := canonical(t, ref), canonical(t, o.Result)
			if !bytes.Equal(want, got) {
				t.Fatalf("degraded elastic result diverges from its replay (%d vs %d bytes):\nreplay: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
		})
	}
}

// TestElasticTCPMatchesLoopback runs the full elastic sequence — 2 workers,
// join 1, drain 1 — over real TCP sockets; the transports must be
// interchangeable down to the byte.
func TestElasticTCPMatchesLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drain0 := make(chan struct{})
	close(drain0) // worker 0 drains from the start, released at the first barrier
	werrs := make(chan error, 3)
	go func() {
		werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{Drain: drain0})
	}()
	go func() { werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{}) }()
	conns := make([]dist.Conn, 2)
	for i := range conns {
		c, aerr := dist.Accept(ctx, l)
		if aerr != nil {
			t.Fatal(aerr)
		}
		conns[i] = c
	}
	// The two dials race for slots 0 and 1, so WHICH slot drains is not
	// deterministic — the replay oracle doesn't care: it reproduces whatever
	// the membership log recorded.
	jc, js := dist.Loopback()
	startElasticWorker(ctx, js)
	joins := make(chan dist.Conn, 1)
	joins <- jc

	sc := scenario(t, "Campus")
	o, mlog, err := sc.RunElastic(ctx, conns, dist.ElasticOptions{
		Options: dist.Options{CheckpointEvery: elasticCkpt},
		Joins:   joins,
	})
	if err != nil {
		t.Fatalf("elastic over TCP: %v", err)
	}
	if len(mlog.Resizes) == 0 {
		t.Fatal("no membership change applied over TCP")
	}
	ref, err := scenario(t, "Campus").ReplayElastic(ctx, o.Assignment, mlog, elasticCkpt)
	if err != nil {
		t.Fatalf("in-process replay: %v", err)
	}
	if !bytes.Equal(canonical(t, ref), canonical(t, o.Result)) {
		t.Fatal("TCP elastic result diverges from its in-process replay")
	}
}

// TestChaosConvergesOrTypedError is the fault-injection matrix: with a
// deterministic chaos transport mangling every worker→coordinator send (drop,
// duplicate, delay, reorder), the run must — within its deadline — either
// converge to the same physical outcome as a clean run (losses recovered by
// replay) or fail with a typed, attributable error. Never a hang, never a
// silently wrong result.
func TestChaosConvergesOrTypedError(t *testing.T) {
	clean, err := scenario(t, "Campus").Run(context.Background(), mapping.Top)
	if err != nil {
		t.Fatalf("clean reference: %v", err)
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			conns := make([]dist.Conn, 2)
			for i := range conns {
				c, s := dist.Loopback()
				conns[i] = c
				chaotic := dist.NewChaosConn(s, dist.ChaosConfig{
					Seed:        seed*100 + int64(i),
					DropProb:    0.01,
					DupProb:     0.01,
					ReorderProb: 0.01,
					DelayProb:   0.05,
					MaxDelay:    time.Millisecond,
				})
				go dist.Serve(ctx, chaotic, dist.WorkerOptions{})
			}
			sc := scenario(t, "Campus")
			o, mlog, err := sc.RunElastic(ctx, conns, dist.ElasticOptions{
				Options: dist.Options{
					CheckpointEvery:  elasticCkpt,
					StepTimeout:      10 * time.Second,
					HandshakeTimeout: 10 * time.Second,
				},
				HeartbeatInterval: 100 * time.Millisecond,
			})
			if err != nil {
				if !errors.Is(err, dist.ErrWorkerLost) && !errors.Is(err, dist.ErrWorkerFault) &&
					!errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("chaos must surface as a typed error, got: %v", err)
				}
				t.Logf("typed failure under chaos (acceptable): %v", err)
				return
			}
			// Converged: the physical outcome must match the clean run exactly,
			// whether or not the protocol had to degrade to the recovery replay.
			if !reflect.DeepEqual(o.Result.FlowFCTs, clean.Result.FlowFCTs) {
				t.Fatalf("chaos run converged to a DIFFERENT physical outcome (losses: %d)", len(mlog.Losses))
			}
			if len(mlog.Losses) > 0 && o.Result.Recovery == nil {
				t.Fatal("recorded losses without a recovery report")
			}
			t.Logf("converged under chaos: %d losses, %d resizes", len(mlog.Losses), len(mlog.Resizes))
		})
	}
}
