package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/emu"
)

// frameBytes is f's wire form, as tcpConn.Send writes it.
func frameBytes(tb testing.TB, f Frame) []byte {
	tb.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: MsgHello, Payload: Hello{Version: Version}.Encode()},
		{Type: MsgBye},
		{Type: MsgEvents, Payload: []byte{}},
		{Type: MsgError, Payload: TextMsg{Text: "boom"}.Encode()},
		{Type: MsgWindow, Payload: bytes.Repeat([]byte{0xab}, 4096)},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		buf.Write(frameBytes(t, f))
	}
	for _, want := range cases {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %s did not round-trip (got %s, %d bytes)", want.Type, got.Type, len(got.Payload))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean stream end should read as EOF, got %v", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized length prefix must be rejected before allocation, got %v", err)
	}
}

func TestReadFrameRejectsEmptyFrame(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(make([]byte, 4)))
	if err == nil {
		t.Fatal("zero-length frame must be rejected")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	full := frameBytes(t, Frame{Type: MsgVote, Payload: Vote{Has: true, Time: 1.5}.Encode()})
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d bytes must error", cut, len(full))
		}
		// A cut inside the body names how much of the body arrived.
		if want := fmt.Sprintf("(%d of %d bytes)", cut-4, len(full)-4); cut > 4 && !strings.Contains(err.Error(), want) {
			t.Fatalf("truncation at %d: want an error naming %s, got %v", cut, want, err)
		}
	}
}

// TestWriteFrameRejectsOversizedPayload: appendFrame, the frame writer
// behind tcpConn.Send, refuses a payload that overflows MaxFrame.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	// Don't allocate 64 MB: a fake slice header would be UB, so use a real
	// allocation but only once, at exactly the limit boundary.
	big := make([]byte, MaxFrame) // payload+1 > MaxFrame
	_, err := appendFrame(nil, Frame{Type: MsgState, Payload: big})
	if err == nil {
		t.Fatal("payload at MaxFrame (with type byte overflowing) must be rejected")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic or over-allocate, only return a frame or an error.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, Frame{Type: MsgHello, Payload: Hello{Version: 1}.Encode()}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed frame must re-encode to a readable frame.
		back, err := ReadFrame(bytes.NewReader(frameBytes(t, fr)))
		if err != nil || back.Type != fr.Type || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("parsed frame did not round-trip: %v", err)
		}
	})
}

// FuzzDecodePayloads drives every message decoder with arbitrary payloads:
// the decoders must return errors, never panic, on malformed input.
func FuzzDecodePayloads(f *testing.F) {
	f.Add(Hello{Version: 1}.Encode())
	f.Add(Vote{Has: true, Time: 3.25}.Encode())
	f.Add(Window{Start: 1, End: 2}.Encode())
	f.Add(EncodeEvents(nil))
	f.Add(ExportMsg{At: 2.5}.Encode())
	f.Add(InstallAck{Lookahead: 0.005}.Encode())
	f.Add(EncodeElasticExport(&emu.ElasticExport{Engines: []int{1}, FCTs: []float64{-1, 0.5}}))
	f.Add(EncodeElasticInstall(&emu.ElasticInstall{At: 2, Lookahead: 0.01, Engines: []int{0, 1}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(Window{Start: 1, End: 2, Events: []emu.WireEvent{{Time: 2, Dst: 1, Kind: emu.WireChunk, Packets: 1}}}.Encode())
	f.Add(EncodeWindowDone(&emu.WindowReport{Events: []int64{1}}, Vote{Has: true, Time: 2.5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHello(data)
		DecodeAssign(data)
		DecodeReady(data)
		DecodeEvents(data)
		DecodeVote(data)
		DecodeWindow(data)
		DecodeWindowDone(data)
		DecodeCheckpoint(data)
		DecodeCheckpointAck(data)
		DecodeState(data)
		DecodeText(data)
		DecodeSpec(data)
		DecodeExportMsg(data)
		DecodeElasticExport(data)
		DecodeElasticInstall(data)
		DecodeInstallAck(data)
	})
}
