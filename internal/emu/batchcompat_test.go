package emu

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// The byte-identical acceptance gate for the batched kernel hot path.
//
// kernelOutcome captures everything deterministic a run produces: the full
// JSONL observability trace (per-window, per-engine counters — any event
// reordering shows up here) and the canonical result fields dist.ResultJSON
// serializes (wall-clock times excluded). Each scenario's outcome is pinned
// by SHA-256 digests recorded from the pre-batching reference barrier (a
// global (time, source LP, send order) sort of every window's cross-engine
// events); internal/dist's TestDistributedMatchesInProcess extends the chain
// to the loopback distributed runtime by comparing its ResultJSON against
// the in-process path.
type kernelOutcome struct {
	trace       string
	windows     int64
	virtualEnd  float64
	skippedTime float64
	events      []int64
	charges     []int64
	remoteSends []int64

	engineLoads    []float64
	imbalance      float64
	appTime        float64
	netTime        float64
	engineBusy     []float64
	remoteEvents   int64
	flowFCTs       []float64
	droppedPackets int64
	linkBytes      []int64
}

// runOutcome executes cfg and extracts the deterministic outcome.
func runOutcome(t *testing.T, cfg Config) kernelOutcome {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	res, err := Run(cfg, WithRecorder(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return kernelOutcome{
		trace:       buf.String(),
		windows:     res.Kernel.Windows,
		virtualEnd:  res.Kernel.VirtualEnd,
		skippedTime: res.Kernel.SkippedTime,
		events:      res.Kernel.Events,
		charges:     res.Kernel.Charges,
		remoteSends: res.Kernel.RemoteSends,

		engineLoads:    res.EngineLoads,
		imbalance:      res.Imbalance,
		appTime:        res.AppTime,
		netTime:        res.NetTime,
		engineBusy:     res.EngineBusy,
		remoteEvents:   res.RemoteEvents,
		flowFCTs:       res.FlowFCTs,
		droppedPackets: res.DroppedPackets,
		linkBytes:      res.LinkBytes,
	}
}

// digests returns the SHA-256 of the outcome's JSONL trace and of its
// result fields.
func (o kernelOutcome) digests() (trace, fields string) {
	tr := sha256.Sum256([]byte(o.trace))
	o.trace = ""
	fs := sha256.Sum256([]byte(fmt.Sprintf("%+v", o)))
	return hex.EncodeToString(tr[:]), hex.EncodeToString(fs[:])
}

// TestBatchedPathByteIdentical runs plain, faulted (checkpoint + rollback +
// replay), PROFILE and buffered-TCP scenarios and requires their traces and
// result fields to hash to the digests the pre-batching reference barrier
// produced. This is the hot path's acceptance gate: pooled per-destination
// batches, the SoA heap and the per-destination barrier merge must be
// invisible in every observable output.
func TestBatchedPathByteIdentical(t *testing.T) {
	scenarios := []struct {
		name          string
		cfg           func() Config
		trace, fields string
	}{
		{"plain", func() Config {
			return Config{
				Network:    lineNet(),
				Assignment: []int{0, 0, 1, 1},
				NumEngines: 2,
				Workload:   spreadFlows(16, 8),
			}
		},
			"9610b41d3fa3863f356ae044d3cde8c81e8a4adb589831caca651189db19848d",
			"459ada44e1e2f3db2557564c0ecb2a0a7dfb29d3ebd2da49fb1c70928ee67f65"},
		{"faulted", faultedConfig,
			"2a2713fa14ff18b8a75d888f988f9ef324a16eaec57377db07054d7804bcf876",
			"5f5718e7d6200310079e93db1890e1d94bee1c55e63e0f4c05d7e0d2eea5a77f"},
		{"profile", func() Config {
			cfg := Config{
				Network:    lineNet(),
				Assignment: []int{0, 0, 1, 1},
				NumEngines: 2,
				Workload:   spreadFlows(16, 8),
			}
			cfg.Profile = true
			return cfg
		},
			"9610b41d3fa3863f356ae044d3cde8c81e8a4adb589831caca651189db19848d",
			"459ada44e1e2f3db2557564c0ecb2a0a7dfb29d3ebd2da49fb1c70928ee67f65"},
		{"tcp-buffered", func() Config {
			return Config{
				Network:     lineNet(),
				Assignment:  []int{0, 0, 1, 1},
				NumEngines:  2,
				Workload:    spreadFlows(16, 8),
				Transport:   TCPSlowStart,
				BufferBytes: 32 << 10,
			}
		},
			"37836c32d5300fda1df167eb4447cac64c59e6236cc8bedfc3928bd868a5bfb9",
			"e5b2c21346c311b2802688d1bb088019bf10e8051c63b3f1168811236978ac3a"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := runOutcome(t, sc.cfg())
			if got.trace == "" || got.windows == 0 {
				t.Fatal("run produced no observable output")
			}
			trace, fields := got.digests()
			if trace != sc.trace {
				t.Errorf("JSONL trace digest %s, reference barrier pinned %s", trace, sc.trace)
			}
			if fields != sc.fields {
				t.Errorf("result-field digest %s, reference barrier pinned %s", fields, sc.fields)
			}
		})
	}
}
