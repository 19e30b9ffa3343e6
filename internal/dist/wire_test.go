package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/mapping"
)

// frameCounter wraps one end of a Conn and counts what it sends and
// receives: frames per message type, and payload bytes.
type frameCounter struct {
	dist.Conn
	mu         sync.Mutex
	sent, recv map[dist.MsgType]int
	bytes      int64
}

func countFrames(c dist.Conn) *frameCounter {
	return &frameCounter{Conn: c, sent: map[dist.MsgType]int{}, recv: map[dist.MsgType]int{}}
}

func (c *frameCounter) Send(f dist.Frame) error {
	err := c.Conn.Send(f)
	if err == nil {
		c.mu.Lock()
		c.sent[f.Type]++
		c.bytes += int64(len(f.Payload))
		c.mu.Unlock()
	}
	return err
}

func (c *frameCounter) Recv(timeout time.Duration) (dist.Frame, error) {
	f, err := c.Conn.Recv(timeout)
	if err == nil {
		c.mu.Lock()
		c.recv[f.Type]++
		c.bytes += int64(len(f.Payload))
		c.mu.Unlock()
	}
	return f, err
}

func (c *frameCounter) frames() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for _, k := range c.sent {
		n += k
	}
	for _, k := range c.recv {
		n += k
	}
	return int64(n)
}

// checkOneRoundTripPerWindow asserts the frames one member's coordinator
// end exchanged: a steady-state window costs exactly one WINDOW out and one
// WINDOW_DONE back, and EVENTS/VOTE appears once, as the opening vote.
func checkOneRoundTripPerWindow(t *testing.T, c *frameCounter, windows int64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ckpts := c.sent[dist.MsgCheckpoint]
	wantSent := map[dist.MsgType]int{
		dist.MsgAssign: 1, dist.MsgEvents: 1, dist.MsgWindow: int(windows),
		dist.MsgCheckpoint: ckpts, dist.MsgFinish: 1, dist.MsgBye: 1,
	}
	wantRecv := map[dist.MsgType]int{
		dist.MsgHello: 1, dist.MsgReady: 1, dist.MsgVote: 1, dist.MsgWindowDone: int(windows),
		dist.MsgCheckpointAck: ckpts, dist.MsgState: 1,
	}
	if ckpts == 0 || windows == 0 {
		t.Fatalf("run crossed %d windows and %d checkpoints; the test needs both", windows, ckpts)
	}
	for _, side := range []struct {
		name      string
		got, want map[dist.MsgType]int
	}{{"sent", c.sent, wantSent}, {"received", c.recv, wantRecv}} {
		for typ, n := range side.got {
			if side.want[typ] != n {
				t.Errorf("coordinator %s %d %s frames over %d windows, want %d", side.name, n, typ, windows, side.want[typ])
			}
		}
		for typ, n := range side.want {
			if side.got[typ] != n {
				t.Errorf("coordinator %s %d %s frames over %d windows, want %d", side.name, side.got[typ], typ, windows, n)
			}
		}
	}
}

// TestWindowCostsOneRoundTrip: over Loopback, every member of a static and
// of an elastic run exchanges exactly one frame each way per window, plus a
// fixed handshake, opening vote, checkpoint and finish overhead.
func TestWindowCostsOneRoundTrip(t *testing.T) {
	ctx := context.Background()
	t.Run("Run", func(t *testing.T) {
		const W = 2
		conns, drain := startLoopbackWorkers(ctx, W)
		counters := make([]*frameCounter, W)
		for i := range conns {
			counters[i] = countFrames(conns[i])
			conns[i] = counters[i]
		}
		o, err := scenario(t, "Campus").RunDistributed(ctx, mapping.Top, conns, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, werr := range drain() {
			if werr != nil {
				t.Fatalf("worker %d: %v", i, werr)
			}
		}
		for _, c := range counters {
			checkOneRoundTripPerWindow(t, c, o.Result.Kernel.Windows)
		}
	})
	t.Run("RunElastic", func(t *testing.T) {
		const W = 3 // Campus has 3 engines: the full capacity, no resize
		conns := make([]dist.Conn, W)
		counters := make([]*frameCounter, W)
		workers := make([]*elasticWorker, W)
		for i := range conns {
			c, s := dist.Loopback()
			counters[i] = countFrames(c)
			conns[i] = counters[i]
			workers[i] = startElasticWorker(ctx, s)
		}
		o, mlog, err := scenario(t, "Campus").RunElastic(ctx, conns, dist.ElasticOptions{
			Options: dist.Options{CheckpointEvery: elasticCkpt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range workers {
			w.wait(t, fmt.Sprintf("worker %d", i))
		}
		if len(mlog.Resizes) != 0 {
			t.Fatalf("steady run resized: %+v", mlog.Resizes)
		}
		for _, c := range counters {
			checkOneRoundTripPerWindow(t, c, o.Result.Kernel.Windows)
		}
	})
}

// The wire gate: TeraGrid TOP, ScaLapack, 30 virtual seconds, seed 42, run
// over 127.0.0.1 TCP against two Serve workers — the setup of perfbench's
// dist-teragrid-tcp workload. Windows, frames and payload bytes per run are
// deterministic and gated exactly against BENCH_dist.json; ns/window is on
// record with the measuring CPU, GOMAXPROCS and date, never gated.
//
//	DISTBENCH_WRITE=1 go test -run TestDistWireBaseline -count=1 ./internal/dist
const distbenchFile = "../../BENCH_dist.json"

type distbenchEntry struct {
	Name string `json:"name"`
	// Deterministic, gated exactly.
	Windows      int64 `json:"windows"`
	Frames       int64 `json:"frames"`
	PayloadBytes int64 `json:"payload_bytes"`
	// On record only (machine-dependent).
	NsPerWindow int64  `json:"ns_per_window"`
	CPU         string `json:"cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

type distbenchBaseline struct {
	Suite       string           `json:"suite"`
	Description string           `json:"description"`
	Date        string           `json:"date"`
	Entries     []distbenchEntry `json:"entries"`
}

// wireRun is one distributed TeraGrid run's wire totals, counted at the
// coordinator's ends of the connections.
type wireRun struct {
	windows, frames, bytes int64
	elapsed                time.Duration
}

func runTeraGridTCP(tb testing.TB) wireRun {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 30, Seed: 42}, "TeraGrid", "ScaLapack")
	if err != nil {
		tb.Fatal(err)
	}
	// Build the workload and routes before the clock starts, as perfbench
	// does in its setup phase.
	if _, err = sc.Workload(); err != nil {
		tb.Fatal(err)
	}
	if _, err = sc.Routes(); err != nil {
		tb.Fatal(err)
	}
	const W = 2
	l, err := dist.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	errs := make(chan error, W)
	for i := 0; i < W; i++ {
		go func() {
			c, derr := dist.Dial(ctx, l.Addr().String())
			if derr != nil {
				errs <- derr
				return
			}
			defer c.Close()
			errs <- dist.Serve(ctx, c, dist.WorkerOptions{})
		}()
	}
	conns := make([]dist.Conn, W)
	counters := make([]*frameCounter, W)
	for i := range conns {
		c, aerr := dist.Accept(ctx, l)
		if aerr != nil {
			tb.Fatal(aerr)
		}
		defer c.Close()
		counters[i] = countFrames(c)
		conns[i] = counters[i]
	}
	start := time.Now()
	o, err := sc.RunDistributed(ctx, mapping.Top, conns, dist.Options{})
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < W; i++ {
		if werr := <-errs; werr != nil {
			tb.Fatalf("worker: %v", werr)
		}
	}
	r := wireRun{windows: o.Result.Kernel.Windows, elapsed: elapsed}
	for _, c := range counters {
		r.frames += c.frames()
		r.bytes += c.bytes
	}
	return r
}

// BenchmarkDistWindow times a whole distributed TeraGrid run and reports it
// per window, with the frames each window costs.
func BenchmarkDistWindow(b *testing.B) {
	var windows, frames int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		r := runTeraGridTCP(b)
		windows += r.windows
		frames += r.frames
		elapsed += r.elapsed
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(windows), "ns/window")
	b.ReportMetric(float64(frames)/float64(windows), "frames/window")
}

// TestDistWireBaseline gates the deterministic wire cost of the TeraGrid
// run against BENCH_dist.json.
func TestDistWireBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("socket test")
	}
	r := runTeraGridTCP(t)
	got := distbenchEntry{Name: "TeraGrid/TOP/2w", Windows: r.windows, Frames: r.frames, PayloadBytes: r.bytes}

	if os.Getenv("DISTBENCH_WRITE") != "" {
		br := testing.Benchmark(BenchmarkDistWindow)
		got.NsPerWindow = int64(br.Extra["ns/window"])
		got.CPU, got.GOMAXPROCS = cpuModel(), runtime.GOMAXPROCS(0)
		out, err := json.MarshalIndent(distbenchBaseline{
			Suite:       "dist",
			Description: "One distributed run of TeraGrid TOP, ScaLapack, seed 42, 30 virtual seconds, over 127.0.0.1 TCP to two dist.Serve workers (perfbench's dist-teragrid-tcp setup): windows, frames and payload bytes per run counted at the coordinator's ends, gated exactly; ns/window on record with the measuring CPU and GOMAXPROCS, never gated.",
			Date:        time.Now().Format("2006-01-02"),
			Entries:     []distbenchEntry{got},
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(distbenchFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %+v", distbenchFile, got)
		return
	}

	data, err := os.ReadFile(distbenchFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with DISTBENCH_WRITE=1)", err)
	}
	var want distbenchBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) != 1 || want.Entries[0].Name != got.Name {
		t.Fatalf("baseline has no single %s entry (regenerate with DISTBENCH_WRITE=1)", got.Name)
	}
	w := want.Entries[0]
	if got.Windows != w.Windows || got.Frames != w.Frames || got.PayloadBytes != w.PayloadBytes {
		t.Fatalf("wire drift — baseline %d windows, %d frames, %d payload bytes; now %d, %d, %d (regenerate with DISTBENCH_WRITE=1 if intentional)",
			w.Windows, w.Frames, w.PayloadBytes, got.Windows, got.Frames, got.PayloadBytes)
	}
	t.Logf("%d windows, %.2f frames/window, %d payload bytes", got.Windows, float64(got.Frames)/float64(got.Windows), got.PayloadBytes)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
