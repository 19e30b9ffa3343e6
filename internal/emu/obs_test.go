package emu

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// faultedConfig is the shared crash scenario: engine 1 dies at t=2, and
// recovery dumps its nodes onto engine 0.
func faultedConfig() Config {
	return Config{
		Network:         lineNet(),
		Assignment:      []int{0, 0, 1, 1},
		NumEngines:      2,
		Workload:        spreadFlows(8, 8),
		Faults:          &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 2}}},
		CheckpointEvery: 1,
		OnCrash:         dumpOn(0),
	}
}

// TestTraceDeterministicAcrossRuns is the acceptance gate for trace
// determinism: identical scenarios — faulted runs included — must produce
// byte-identical JSONL traces.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"plain-parallel", func() Config {
			return Config{
				Network:    lineNet(),
				Assignment: []int{0, 0, 1, 1},
				NumEngines: 2,
				Workload:   spreadFlows(8, 8),
			}
		}},
		{"faulted-parallel", faultedConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			emit := func() string {
				var buf bytes.Buffer
				tr := obs.NewTrace(&buf)
				if _, err := Run(tc.cfg(), WithRecorder(tr)); err != nil {
					t.Fatal(err)
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			a, b := emit(), emit()
			if a == "" {
				t.Fatal("empty trace")
			}
			if a != b {
				t.Fatalf("identical runs produced different traces:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestRunStatsMatchesRecovery checks that the observability stream reports
// the same recovery picture as the existing Recovery metrics: checkpoint,
// crash, and rollback counts, replayed windows, and per-engine migrations.
func TestRunStatsMatchesRecovery(t *testing.T) {
	res, err := Run(faultedConfig(), WithStats())
	if err != nil {
		t.Fatal(err)
	}
	st, rec := res.Obs, res.Recovery
	if st == nil {
		t.Fatal("WithStats did not attach Result.Obs")
	}
	if rec == nil {
		t.Fatal("no Recovery report despite a crash schedule")
	}
	if st.Checkpoints != int64(rec.Checkpoints) {
		t.Errorf("obs checkpoints = %d, recovery says %d", st.Checkpoints, rec.Checkpoints)
	}
	if st.Crashes != int64(rec.Failures) || st.Rollbacks != int64(rec.Failures) {
		t.Errorf("obs crashes/rollbacks = %d/%d, recovery failures = %d",
			st.Crashes, st.Rollbacks, rec.Failures)
	}
	if got := st.TotalMigrations(); got != int64(rec.Migrations) {
		t.Errorf("obs migrations = %d, recovery says %d", got, rec.Migrations)
	}
	// Every node engine 1 owned moved to engine 0: the per-engine breakdown
	// must put all migrations on the surviving destination.
	if st.MigratedNodes[1] != 0 || st.MigratedNodes[0] != int64(rec.Migrations) {
		t.Errorf("MigratedNodes = %v, want all %d on engine 0", st.MigratedNodes, rec.Migrations)
	}
	if rec.ReplayedEvents > 0 && st.ReplayedWindows == 0 {
		t.Errorf("recovery replayed %d events but obs reports 0 replayed windows", rec.ReplayedEvents)
	}
	// One kernel segment per k.Run(): the initial attempt plus one resume.
	if st.Segments != rec.Failures+1 {
		t.Errorf("obs segments = %d, want %d (failures+1)", st.Segments, rec.Failures+1)
	}
}

// cancelAfter is a Recorder that cancels a context after n windows — a
// deterministic way to interrupt a run mid-flight.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) RecordRun(obs.RunMeta) {}
func (c *cancelAfter) RecordEvent(obs.Event) {}
func (c *cancelAfter) RecordWindow(obs.Window) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

func TestRunContextCancellation(t *testing.T) {
	base := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
	}

	// Already-canceled context: rejected before any emulation work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(base, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled run error = %v, want context.Canceled", err)
	}

	// Cancellation mid-run is observed at the next window barrier.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, err := Run(base, WithContext(ctx), WithRecorder(&cancelAfter{n: 2, cancel: cancel})); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancellation error = %v, want context.Canceled", err)
	}

	// A nil-ish context leaves the run unaffected.
	if _, err := Run(base, WithContext(context.Background())); err != nil {
		t.Errorf("background-context run failed: %v", err)
	}
}

func TestErrBadConfigSentinel(t *testing.T) {
	cases := []Config{
		{},                                  // no network
		{Network: lineNet()},                // no engines
		{Network: lineNet(), NumEngines: 2}, // missing assignment
		{Network: lineNet(), NumEngines: 2, // out-of-range assignment
			Assignment: []int{0, 0, 5, 1}},
		{Network: lineNet(), NumEngines: 2, // crashes without OnCrash
			Assignment: []int{0, 0, 1, 1},
			Faults:     &faults.Schedule{Crashes: []faults.Crash{{Engine: 1, At: 1}}}},
	}
	for i, cfg := range cases {
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error %v does not wrap ErrBadConfig", i, err)
		}
	}
}

// TestWithCostModelOption checks the per-run cost override takes effect
// without touching the base Config.
func TestWithCostModelOption(t *testing.T) {
	cfg := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(4, 4),
	}
	cheap, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dear, err := Run(cfg, WithCostModel(CostModel{PerEvent: 10 * PentiumIICluster.PerEvent}))
	if err != nil {
		t.Fatal(err)
	}
	if dear.NetTime <= cheap.NetTime {
		t.Errorf("10x per-event cost did not raise NetTime: %g vs %g", dear.NetTime, cheap.NetTime)
	}
}
