package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
)

// scenario builds a fresh, fast scenario for one run. Every call returns an
// identically-parameterized scenario so in-process and distributed runs never
// share memoized state.
func scenario(t *testing.T, topology string) *core.Scenario {
	t.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 10, Seed: 42}, topology, "ScaLapack")
	if err != nil {
		t.Fatalf("scenario %s: %v", topology, err)
	}
	sc.CollectTelemetry = true
	return sc
}

// startLoopbackWorkers spawns W in-process workers and returns the
// coordinator-side connections plus a drain function for the workers' exit
// errors.
func startLoopbackWorkers(ctx context.Context, w int) ([]dist.Conn, func() []error) {
	conns := make([]dist.Conn, w)
	errs := make(chan error, w)
	for i := 0; i < w; i++ {
		c, s := dist.Loopback()
		conns[i] = c
		go func() { errs <- dist.Serve(ctx, s, dist.WorkerOptions{}) }()
	}
	return conns, func() []error {
		out := make([]error, w)
		for i := range out {
			out[i] = <-errs
		}
		return out
	}
}

func runDistributed(t *testing.T, topology string, a mapping.Approach, workers int) *emu.Result {
	t.Helper()
	ctx := context.Background()
	conns, drain := startLoopbackWorkers(ctx, workers)
	sc := scenario(t, topology)
	o, err := sc.RunDistributed(ctx, a, conns, dist.Options{})
	if err != nil {
		t.Fatalf("distributed %s on %s: %v", a, topology, err)
	}
	for i, werr := range drain() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return o.Result
}

func canonical(t *testing.T, r *emu.Result) []byte {
	t.Helper()
	b, err := dist.ResultJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedMatchesInProcess is the core fidelity guarantee: a run
// spread over worker processes must produce byte-identical results to the
// same scenario run in-process.
func TestDistributedMatchesInProcess(t *testing.T) {
	cases := []struct {
		topology string
		workers  int
	}{
		{"Campus", 2},
		{"Campus", 3}, // one engine per worker
		{"TeraGrid", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dw", tc.topology, tc.workers), func(t *testing.T) {
			t.Parallel()
			inproc, err := scenario(t, tc.topology).Run(context.Background(), mapping.Top)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			distRes := runDistributed(t, tc.topology, mapping.Top, tc.workers)
			want := canonical(t, inproc.Result)
			got := canonical(t, distRes)
			if !bytes.Equal(want, got) {
				t.Fatalf("distributed result diverges from in-process (canonical JSON, %d vs %d bytes):\nin-process: %.600s\ndistributed: %.600s",
					len(want), len(got), want, got)
			}
			if distRes.Kernel.TotalCharges() == 0 {
				t.Fatal("empty run proves nothing")
			}
		})
	}
}

// TestDistributedTCPMatchesLoopback runs the same scenario over real TCP
// sockets and over the in-process loopback transport; the transports must be
// interchangeable.
func TestDistributedTCPMatchesLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	const workers = 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	werrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() { werrs <- dist.DialAndServe(ctx, l.Addr().String(), dist.WorkerOptions{}) }()
	}
	conns := make([]dist.Conn, workers)
	for i := range conns {
		c, aerr := dist.Accept(ctx, l)
		if aerr != nil {
			t.Fatal(aerr)
		}
		conns[i] = c
	}
	sc := scenario(t, "Campus")
	o, err := sc.RunDistributed(ctx, mapping.Top, conns, dist.Options{})
	if err != nil {
		t.Fatalf("distributed over TCP: %v", err)
	}
	for i := 0; i < workers; i++ {
		if werr := <-werrs; werr != nil {
			t.Fatalf("tcp worker %d: %v", i, werr)
		}
	}
	loopback := runDistributed(t, "Campus", mapping.Top, workers)
	if !bytes.Equal(canonical(t, o.Result), canonical(t, loopback)) {
		t.Fatal("TCP and loopback transports produced different results")
	}
}

// flakyConn injects a connection failure after the coordinator has commanded
// a number of windows — a worker process dying mid-run, as seen from the
// coordinator's side of the socket.
type flakyConn struct {
	dist.Conn
	windows   int
	failAfter int
}

var errInjectedLink = errors.New("injected link failure")

func (f *flakyConn) Send(fr dist.Frame) error {
	if fr.Type == dist.MsgWindow {
		f.windows++
		if f.windows > f.failAfter {
			return errInjectedLink
		}
	}
	return f.Conn.Send(fr)
}

// TestWorkerLossDegradesToRecovery kills a worker mid-run and requires the
// run to complete — deadline-bounded — through the crash-recovery remap path
// instead of hanging or failing.
func TestWorkerLossDegradesToRecovery(t *testing.T) {
	done := make(chan *core.Outcome, 1)
	fail := make(chan error, 1)
	go func() {
		ctx := context.Background()
		conns, _ := startLoopbackWorkers(ctx, 2)
		conns[1] = &flakyConn{Conn: conns[1], failAfter: 3}
		sc := scenario(t, "Campus")
		o, err := sc.RunDistributed(ctx, mapping.Top, conns, dist.Options{})
		if err != nil {
			fail <- err
			return
		}
		done <- o
	}()
	select {
	case err := <-fail:
		t.Fatalf("worker loss must degrade, not fail the run: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("worker loss wedged the run (deadline exceeded)")
	case o := <-done:
		rec := o.Result.Recovery
		if rec == nil {
			t.Fatal("degraded run must report Recovery")
		}
		if rec.Failures == 0 {
			t.Fatal("the lost worker's engines were never fail-stopped")
		}
		if o.Result.Kernel.TotalCharges() == 0 {
			t.Fatal("degraded run produced an empty result")
		}
		// The lost worker owned engines 1 (and 3, 5, ... if any); recovery
		// must have remapped onto survivors: final assignment avoids them.
		for v, e := range o.Result.FinalAssignment {
			for _, dead := range rec.DeadEngines {
				if e == dead {
					t.Fatalf("node %d still assigned to dead engine %d", v, e)
				}
			}
		}
	}
}

// TestCoordinatorRejectsBadShapes covers the cheap validation paths.
func TestCoordinatorRejectsBadShapes(t *testing.T) {
	if _, err := dist.Run(context.Background(), &dist.RunSpec{}, nil, dist.Options{}); err == nil {
		t.Fatal("no workers must be rejected")
	}
	sc := scenario(t, "Campus")
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		t.Fatal(err)
	}
	cfg := emu.Config{
		Network: sc.Network, Assignment: part, NumEngines: sc.Engines, Workload: w,
	}
	// More workers than engines: someone would idle with zero engines.
	many := make([]dist.Conn, sc.Engines+1)
	for i := range many {
		c, s := dist.Loopback()
		many[i] = c
		_ = s
	}
	if _, err := dist.Run(context.Background(), &dist.RunSpec{Cfg: cfg}, many, dist.Options{}); err == nil {
		t.Fatal("more workers than engines must be rejected")
	}
	// Cfg.OnCrash must not be set on a distributed spec.
	cfg.OnCrash = func(emu.EngineFailure) ([]int, error) { return nil, nil }
	one := make([]dist.Conn, 1)
	one[0], _ = dist.Loopback()
	if _, err := dist.Run(context.Background(), &dist.RunSpec{Cfg: cfg}, one, dist.Options{}); err == nil {
		t.Fatal("Cfg.OnCrash must be rejected")
	}
}
