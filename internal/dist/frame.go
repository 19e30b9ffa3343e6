// Package dist is the distributed engine runtime: a coordinator/worker
// protocol that runs each group of simulation engines as its own process,
// connected over TCP (or an in-process loopback for tests), while keeping
// results byte-identical to the in-process emu.Run path.
//
// The protocol is a straight serialization of the conservative kernel's
// window loop (§2.2.3 of the paper), at one round trip per window:
//
//	worker                         coordinator
//	HELLO          ──────────────▶
//	               ◀────────────── ASSIGN (scenario spec + engines + hash)
//	READY (hash)   ──────────────▶
//	               ◀────────────── EVENTS (opening vote request, no events)
//	VOTE (min t)   ──────────────▶
//	loop:
//	               ◀────────────── WINDOW [T, T+L) + the last barrier's events
//	WINDOW_DONE    ──────────────▶  (counters, outbox, telemetry share, vote)
//	               ◀────────────── CHECKPOINT (at cadence) / FINISH / ABORT
//	STATE (final)  ──────────────▶
//	               ◀────────────── BYE
//
// The worker injects a WINDOW's events, steps the window, then votes; the
// coordinator's next window comes from the minimum over those votes and the
// earliest event it holds for delivery. EVENTS/VOTE carries a vote with no
// window attached: the opening vote here, and the elastic resize barrier's
// delivery of held events (see elastic.go).
//
// Every frame is a uint32 length prefix followed by a one-byte message type
// and a binary payload; floats travel as raw IEEE-754 bits so no value is
// ever perturbed by a text round-trip.
package dist

import (
	"fmt"
	"io"

	"encoding/binary"
)

// Version is the protocol version; HELLO/ASSIGN carry it and any mismatch
// aborts the handshake. v3 added the SPANS frame, the spec's Tracing flag
// and the straggler/degradation schedule fields; v4 dropped the spec's
// sequential-kernel flag; v5 folded event delivery into WINDOW and the vote
// into WINDOW_DONE, leaving EVENTS/VOTE for the opening vote and the
// resize barrier.
const Version = 5

// MaxFrame bounds a frame's payload (type byte included). It is sized for
// the largest legitimate message — a full telemetry slow-state partial on a
// large topology — while keeping a corrupt or hostile length prefix from
// driving an unbounded allocation.
const MaxFrame = 64 << 20

// MsgType identifies a frame's payload.
type MsgType uint8

const (
	// MsgHello opens a worker connection (payload: version).
	MsgHello MsgType = iota + 1
	// MsgAssign ships the scenario spec, the worker's engine set and the
	// spec hash.
	MsgAssign
	// MsgReady acknowledges ASSIGN with the worker's independently computed
	// spec hash and lookahead.
	MsgReady
	// MsgEvents delivers barrier-merged events and requests a vote outside
	// the window loop (the opening vote, the resize barrier).
	MsgEvents
	// MsgVote answers with the worker's earliest pending event time.
	MsgVote
	// MsgWindow delivers the last barrier's events and commands execution
	// of one window [start, end).
	MsgWindow
	// MsgWindowDone reports a window's counters, outbox, telemetry and the
	// worker's post-window vote.
	MsgWindowDone
	// MsgCheckpoint commands a local snapshot at a barrier; MsgCheckpointAck
	// confirms it.
	MsgCheckpoint
	MsgCheckpointAck
	// MsgFinish ends the run; the worker answers with MsgState.
	MsgFinish
	MsgState
	// MsgError reports a worker-side run error (poisoned run, bad event).
	MsgError
	// MsgAbort tells a worker to stop immediately (coordinator shutdown,
	// peer loss, cancellation).
	MsgAbort
	// MsgBye releases the worker after a successful run (or after its state
	// has been exported at a drain barrier).
	MsgBye
	// MsgPing probes a silent worker's liveness; MsgPong answers it. Pongs
	// may interleave with protocol responses and are absorbed anywhere.
	MsgPing
	MsgPong
	// MsgDrain is a worker's unsolicited request to leave the run at the
	// next membership barrier; the coordinator absorbs it anywhere.
	MsgDrain
	// MsgExport pulls a worker's complete barrier state for a membership
	// change; the worker answers with its ElasticExport.
	MsgExport
	// MsgInstall reseats a continuing worker onto the post-resize state;
	// MsgInstallAck confirms with the worker's derived lookahead.
	MsgInstall
	MsgInstallAck
	// MsgSpans ships a worker's buffered wall-clock trace spans. Sent only
	// when tracing is on, immediately before the WINDOW_DONE or
	// CHECKPOINT_ACK it annotates; the coordinator absorbs it anywhere.
	MsgSpans
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgAssign:
		return "ASSIGN"
	case MsgReady:
		return "READY"
	case MsgEvents:
		return "EVENTS"
	case MsgVote:
		return "VOTE"
	case MsgWindow:
		return "WINDOW"
	case MsgWindowDone:
		return "WINDOW_DONE"
	case MsgCheckpoint:
		return "CHECKPOINT"
	case MsgCheckpointAck:
		return "CHECKPOINT_ACK"
	case MsgFinish:
		return "FINISH"
	case MsgState:
		return "STATE"
	case MsgError:
		return "ERROR"
	case MsgAbort:
		return "ABORT"
	case MsgBye:
		return "BYE"
	case MsgPing:
		return "PING"
	case MsgPong:
		return "PONG"
	case MsgDrain:
		return "DRAIN"
	case MsgExport:
		return "EXPORT"
	case MsgInstall:
		return "INSTALL"
	case MsgInstallAck:
		return "INSTALL_ACK"
	case MsgSpans:
		return "SPANS"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Frame is one length-delimited protocol message.
type Frame struct {
	Type    MsgType
	Payload []byte
}

// frameHeader is the wire overhead of one frame: the uint32 length prefix
// plus the type byte.
const frameHeader = 5

// appendFrame appends f's wire form to dst: uint32 little-endian length
// (type byte + payload), then the type byte, then the payload.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload)+1 > MaxFrame {
		return dst, fmt.Errorf("dist: frame %s payload %d bytes exceeds MaxFrame %d", f.Type, len(f.Payload), MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)+1))
	dst = append(dst, byte(f.Type))
	return append(dst, f.Payload...), nil
}

// ReadFrame reads one frame, rejecting empty frames and length prefixes
// beyond MaxFrame before allocating anything.
func ReadFrame(r io.Reader) (Frame, error) {
	var fr frameReader
	return fr.read(r)
}

// frameReader parses frames from a stream and keeps a partially read frame
// across a failed read: a Recv that times out mid-frame resumes exactly
// where it stopped, instead of parsing the next frame from the middle of
// the stream.
type frameReader struct {
	hdr  [4]byte
	nhdr int
	body []byte // allocated once the length prefix is complete
	nbod int
}

func (fr *frameReader) read(r io.Reader) (Frame, error) {
	for fr.nhdr < len(fr.hdr) {
		n, err := r.Read(fr.hdr[fr.nhdr:])
		fr.nhdr += n
		if err != nil && fr.nhdr < len(fr.hdr) {
			if err == io.EOF && fr.nhdr > 0 {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	if fr.body == nil {
		n := binary.LittleEndian.Uint32(fr.hdr[:])
		if n == 0 {
			fr.nhdr = 0
			return Frame{}, fmt.Errorf("dist: empty frame")
		}
		if n > MaxFrame {
			fr.nhdr = 0
			return Frame{}, fmt.Errorf("dist: frame length %d exceeds MaxFrame %d", n, MaxFrame)
		}
		fr.body = make([]byte, n)
	}
	for fr.nbod < len(fr.body) {
		n, err := r.Read(fr.body[fr.nbod:])
		fr.nbod += n
		if err != nil && fr.nbod < len(fr.body) {
			if isTimeout(err) {
				return Frame{}, err
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("dist: truncated frame (%d of %d bytes): %w", fr.nbod, len(fr.body), err)
		}
	}
	body := fr.body
	*fr = frameReader{}
	return Frame{Type: MsgType(body[0]), Payload: body[1:]}, nil
}
