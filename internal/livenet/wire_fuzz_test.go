package livenet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"testing"
)

// FuzzProbeHeader holds parseProbeHeader to its totality contract: no
// input may panic, and an accepted input must round-trip its decoded
// fields. The committed corpus (testdata/fuzz/FuzzProbeHeader) pins
// the interesting shapes: valid, truncated, wrong magic, empty.
func FuzzProbeHeader(f *testing.F) {
	f.Add(probePacket(1, 2, 3, packetHeader))
	f.Add(probePacket(1, 2, 3, maxPacket))
	f.Add(probePacket(1, 2, 3, packetHeader)[:7]) // truncated mid-header
	f.Add([]byte{})
	bad := probePacket(1, 2, 3, packetHeader)
	bad[3] ^= 1 // wrong magic
	f.Add(bad)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, ok := parseProbeHeader(b)
		if !ok {
			if h != (probeHeader{}) {
				t.Fatalf("rejected input returned non-zero header %+v", h)
			}
			if len(b) >= packetHeader && binary.BigEndian.Uint32(b[0:4]) == magic {
				t.Fatalf("well-formed %d-byte header rejected", len(b))
			}
			return
		}
		if len(b) < packetHeader {
			t.Fatalf("accepted %d-byte datagram below header size %d", len(b), packetHeader)
		}
		again := probePacket(h.session, h.stream, uint32(h.seq), packetHeader)
		if !bytes.Equal(b[:packetHeader], again) {
			t.Fatalf("header did not round-trip: % x -> %+v -> % x", b[:packetHeader], h, again)
		}
	})
}

// fuzzSession builds a session detached from any socket: openStream,
// finishStream and stamp only touch the session's own state and the
// receiver's counters, so the control-plane state machine can be
// fuzzed without network setup. The closed channel starts closed so
// finishStream never enters its drain wait.
func fuzzSession() *session {
	r := &Receiver{cfg: Config{}.withDefaults(), closed: make(chan struct{})}
	close(r.closed)
	return &session{id: 1, r: r, streams: make(map[uint32]*rxStream)}
}

// FuzzCtrlMsg feeds arbitrary bytes through the control-channel JSON
// decoding into the stream state machine, asserting the invariants a
// hostile sender must not be able to break: no panics, replies always
// carry a known type, and the outstanding-byte accounting returns to
// zero once every stream is reaped.
func FuzzCtrlMsg(f *testing.F) {
	f.Add([]byte(`{"type":"stream","id":1,"count":4,"size":64}`))
	f.Add([]byte(`{"type":"done","id":1}`))
	f.Add([]byte(`{"type":"stream","id":1,"count":-5,"size":999999999}`))
	f.Add([]byte(`{"type":"stream","count":1048577,"size":15}`))
	f.Add([]byte(`{"type":"bogus"}`))
	f.Add([]byte(`{"type":`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m ctrlMsg
		if err := json.Unmarshal(raw, &m); err != nil {
			return // malformed JSON is rejected before the state machine
		}
		s := fuzzSession()
		open := s.openStream(m)
		switch open.Type {
		case msgReady:
			limits := s.r.cfg
			if m.Count < 1 || m.Count > limits.MaxCount || m.Size < packetHeader || m.Size > maxPacket {
				t.Fatalf("out-of-limit stream %+v accepted", m)
			}
		case msgError:
		default:
			t.Fatalf("openStream reply type %q", open.Type)
		}
		// Stamp attempts with the message's own (attacker-chosen)
		// numbers: must never panic or index out of range.
		src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
		s.stamp(src, m.ID, m.Count-1, m.Size, 1)
		s.stamp(src, m.ID, -1, m.Size, 2)
		s.stamp(src, m.Session, m.Count, m.Size, 3)

		fin := m
		fin.DeadlineMs = 0 // the drain wait is time-based; not under test
		done := s.finishStream(fin)
		if open.Type == msgReady {
			if done.Type != msgResult || len(done.RecvNs) != m.Count {
				t.Fatalf("finish of an open stream returned %q with %d slots, want %q with %d",
					done.Type, len(done.RecvNs), msgResult, m.Count)
			}
		} else if done.Type != msgError {
			t.Fatalf("finish of a never-opened stream returned %q", done.Type)
		}
		if s.pending != 0 {
			t.Fatalf("outstanding bytes %d after every stream was reaped", s.pending)
		}
		if s.streamCount() != 0 {
			t.Fatalf("%d streams left after reap", s.streamCount())
		}
	})
}

// TestTruncatedProbeCountedAsLoss is the end-to-end regression for the
// parse path: datagrams truncated below the header — including a
// magic-prefixed fragment — must be counted as receiver drops and the
// armed sequence slot reported as a loss, with the UDP loop alive to
// stamp the next valid probe.
func TestTruncatedProbeCountedAsLoss(t *testing.T) {
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	const declared = 64
	if reply := openRawStream(t, tr, 1, 2, declared); reply.Type != msgReady {
		t.Fatalf("stream setup reply = %+v", reply)
	}
	// Two sub-header datagrams: a 7-byte magic-prefixed fragment of a
	// valid seq-0 packet, and pure garbage.
	if _, err := tr.udp.Write(probePacket(tr.SessionID(), 1, 0, declared)[:7]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.udp.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "truncated datagrams dropped", func() bool { return r.Stats().Drops >= 2 })
	// The loop survived: a valid probe for seq 1 still stamps.
	if _, err := tr.udp.Write(probePacket(tr.SessionID(), 1, 1, declared)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid packet stamped", func() bool { return r.Stats().Packets >= 1 })
	res := finishRawStream(t, tr, 1, 50)
	if res.Type != msgResult || len(res.RecvNs) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.RecvNs[0] != -1 {
		t.Errorf("truncated packet's slot stamped at %d, want lost (-1)", res.RecvNs[0])
	}
	if res.RecvNs[1] < 0 {
		t.Error("valid packet reported lost")
	}
}
