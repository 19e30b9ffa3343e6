package dist

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// member is one live worker as a coordinator addresses it: its connection,
// the slot that errors, hooks and the timeline key it by (the worker index
// in Run, the engine-block slot in RunElastic), and the engines it runs.
type member struct {
	conn     Conn
	slot     int
	engines  []int
	draining bool // RunElastic only: asked to leave at the next barrier
}

// barrier is the coordinator side of the window loop, shared by Run and
// RunElastic — a faithful serialization of des.(*Kernel).Run. A window costs
// one round trip per worker: WINDOW carries the window bounds plus the
// previous barrier's events bound for that worker's engines (in global merge
// order, so the per-LP sequence streams come out identical to in-process),
// and WINDOW_DONE returns the worker's counters, outbox and post-window vote.
// The global vote is the minimum over those votes and the earliest event
// held for delivery. That is exactly the minimum votes taken after delivery
// would give, because every held event lies at or beyond the window's end.
//
// EVENTS/VOTE (open) is the exchange for a vote with no window attached: the
// opening vote at run start and after a resize install, and the resize
// barrier's delivery of held events to their old owners.
type barrier struct {
	merge  *emu.DistMerge
	recv   func(m *member) (Frame, error)
	health *telemetry.ClusterHealth // nil: no live health signal
	tl     *obs.Timeline

	// L is the window width; T the current window start on the global grid,
	// which the first vote after a (re)start floors onto.
	L, T  float64
	first bool
	// minT/has is the current global vote.
	minT float64
	has  bool

	// outbox holds the last window's cross-engine events, globally sorted,
	// until the next WINDOW or EVENTS round ships them. route maps an engine
	// to the index of the member running it (-1: nobody).
	outbox  []emu.WireEvent
	route   []int
	per     [][]emu.WireEvent
	reports []*emu.WindowReport
}

func newBarrier(merge *emu.DistMerge, numEngines int, recv func(*member) (Frame, error),
	health *telemetry.ClusterHealth) *barrier {
	return &barrier{merge: merge, recv: recv, health: health, tl: merge.Trace(),
		route: make([]int, numEngines)}
}

// seat routes events to members and restarts the window grid at width L —
// at run start and after every membership change.
func (b *barrier) seat(members []*member, L float64) {
	for e := range b.route {
		b.route[e] = -1
	}
	for i, m := range members {
		for _, e := range m.engines {
			b.route[e] = i
		}
	}
	b.L, b.first = L, true
}

// split deals the held outbox out per member, preserving global order, and
// empties it.
func (b *barrier) split(members []*member) error {
	for len(b.per) < len(members) {
		b.per = append(b.per, nil)
	}
	for i := range members {
		b.per[i] = b.per[i][:0]
	}
	for _, ev := range b.outbox {
		i := -1
		if ev.Dst >= 0 && int(ev.Dst) < len(b.route) {
			i = b.route[ev.Dst]
		}
		if i < 0 {
			return fmt.Errorf("dist: event for engine %d routed to an engine no worker runs", ev.Dst)
		}
		b.per[i] = append(b.per[i], ev)
	}
	b.outbox = b.outbox[:0]
	return nil
}

// open delivers the held events with EVENTS and takes every member's VOTE
// as the global vote.
func (b *barrier) open(members []*member) error {
	if err := b.split(members); err != nil {
		return err
	}
	for i, m := range members {
		if err := sendTo(m.conn, m.slot, Frame{Type: MsgEvents, Payload: EncodeEvents(b.per[i])}); err != nil {
			return err
		}
	}
	b.minT, b.has = 0, false
	return b.gather(members, MsgVote, func(_ int, p []byte) error {
		v, err := DecodeVote(p)
		if err != nil {
			return err
		}
		b.vote(v)
		return nil
	})
}

func (b *barrier) vote(v Vote) {
	if v.Has && (!b.has || v.Time < b.minT) {
		b.minT, b.has = v.Time, true
	}
}

// next picks the next window from the global vote, on the same grid and
// with the same skip accounting as the kernel. ok is false once nothing is
// pending before endTime (0: no end).
func (b *barrier) next(endTime float64) (T, end float64, ok bool) {
	if !b.has || (endTime > 0 && b.minT >= endTime) {
		return 0, 0, false
	}
	if b.first {
		b.T = des.WindowFloor(b.minT, b.L)
		b.first = false
	}
	if b.minT >= b.T+b.L {
		nt := des.WindowFloor(b.minT, b.L)
		b.merge.Skip(nt - b.T)
		b.T = nt
	}
	return b.T, b.T + b.L, true
}

// window executes [T, end) on every member in one round trip, commits the
// merged counters, and leaves the next global vote and the sorted outbox
// behind for the following round.
func (b *barrier) window(members []*member, T, end float64) error {
	if err := b.split(members); err != nil {
		return err
	}
	for i, m := range members {
		w := Window{Start: T, End: end, Events: b.per[i]}
		if err := sendTo(m.conn, m.slot, Frame{Type: MsgWindow, Payload: w.Encode()}); err != nil {
			return err
		}
	}
	b.reports = b.reports[:0]
	b.minT, b.has = 0, false
	err := b.gather(members, MsgWindowDone, func(_ int, p []byte) error {
		rep, v, err := DecodeWindowDone(p)
		if err != nil {
			return err
		}
		b.reports = append(b.reports, rep)
		b.outbox = append(b.outbox, rep.Outbox...)
		b.vote(v)
		return nil
	})
	if err != nil {
		return err
	}
	emu.SortWire(b.outbox)
	if len(b.outbox) > 0 {
		b.vote(Vote{Has: true, Time: b.outbox[0].Time})
	}
	if err := b.merge.CommitWindow(T, end, b.reports); err != nil {
		return err
	}
	if b.health != nil && b.tl != nil {
		for _, ws := range b.tl.DrainWindowStats() {
			b.health.ObserveWindow(ws.Worker, ws.Lag)
		}
		b.health.SetAttribution(b.tl.Health())
	}
	b.T = end
	return nil
}

// checkpoint commands a barrier snapshot at virtual time at on every member.
func (b *barrier) checkpoint(members []*member, at float64) error {
	if err := broadcast(members, Frame{Type: MsgCheckpoint, Payload: CheckpointMsg{At: at}.Encode()}); err != nil {
		return err
	}
	return b.gather(members, MsgCheckpointAck, nil)
}

// finish ends the run: FINISH to every member, their final STATEs, BYE to
// the members and to any bystanders (elastic joiners still waiting for a
// barrier that never came), then the merged Result.
func (b *barrier) finish(members, bystanders []*member, start time.Time) (*emu.Result, error) {
	if err := broadcast(members, Frame{Type: MsgFinish}); err != nil {
		return nil, err
	}
	states := make([]*emu.DistState, len(members))
	err := b.gather(members, MsgState, func(i int, p []byte) error {
		st, err := DecodeState(p)
		states[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, group := range [][]*member{members, bystanders} {
		if err := broadcast(group, Frame{Type: MsgBye}); err != nil {
			return nil, err
		}
	}
	return b.merge.Finalize(states, time.Since(start))
}

// gather receives one frame of type want from every member, in member
// order, and hands its payload to decode (nil: ignore it). Any other frame
// type, and any decode error, is a protocol violation that loses the
// worker.
func (b *barrier) gather(members []*member, want MsgType, decode func(i int, payload []byte) error) error {
	for i, m := range members {
		f, err := b.recv(m)
		if err != nil {
			return err
		}
		if f.Type != want {
			return &workerLost{worker: m.slot, err: fmt.Errorf("expected %s, got %s", want, f.Type)}
		}
		if decode != nil {
			if err := decode(i, f.Payload); err != nil {
				return &workerLost{worker: m.slot, err: err}
			}
		}
	}
	return nil
}

func broadcast(members []*member, f Frame) error {
	for _, m := range members {
		if err := sendTo(m.conn, m.slot, f); err != nil {
			return err
		}
	}
	return nil
}
