package livenet

import (
	"encoding/binary"
	"time"
)

// The wire protocol, v2 (session-scoped stream IDs).
//
// Control channel: line-delimited JSON over TCP. The receiver opens
// every connection with a "session" message carrying the
// server-assigned session ID — random, so it doubles as the token
// that proves a probe datagram belongs to the session — (or an
// "error" message when the session limit is reached, then closes). The sender then drives a
// request/reply loop — "stream" answered by "ready" or "error", "done"
// answered by "result" or "error". An "error" reply to "stream" or
// "done" leaves the connection usable; only a malformed control stream
// ends the session.
//
// Probe channel: UDP datagrams whose first packetHeader bytes are
// magic(4) sessionID(4) streamID(4) seq(4), all big-endian. The
// receiver routes each datagram by (sessionID, streamID): stream IDs
// are a per-session namespace chosen by the sender, so concurrent
// senders can never collide however they number their streams.

const packetHeader = 16 // magic(4) sessionID(4) streamID(4) seq(4)

// magic identifies probe datagrams; bumped from 0xab11e57a when the
// header grew a session ID so v1 packets cannot be misrouted.
const magic = 0xab11e57b

// maxPacket bounds declared and received datagram sizes: the maximum
// IPv4 UDP payload (65535 − 20 IP − 8 UDP), so an accepted size is
// always actually sendable.
const maxPacket = 65507

// maxDrainWait caps how long a "done" may hold its session handler
// waiting for stragglers, whatever deadline the sender declares.
const maxDrainWait = 30 * time.Second

// Control message types.
const (
	msgSession = "session" // receiver → sender: your assigned session ID
	msgStream  = "stream"  // sender → receiver: open a stream
	msgReady   = "ready"   // receiver → sender: stream is armed
	msgDone    = "done"    // sender → receiver: stream sent, report it
	msgResult  = "result"  // receiver → sender: per-packet timestamps
	msgError   = "error"   // receiver → sender: request refused / failed
)

// ctrlMsg is every control-channel message; unused fields are omitted
// on the wire.
type ctrlMsg struct {
	Type       string  `json:"type"`
	Session    uint32  `json:"session,omitempty"`
	ID         uint32  `json:"id,omitempty"`
	Count      int     `json:"count,omitempty"`
	Size       int     `json:"size,omitempty"`
	DeadlineMs int     `json:"deadline_ms,omitempty"`
	RecvNs     []int64 `json:"recv_ns,omitempty"` // -1 = lost
	Error      string  `json:"error,omitempty"`
}

func errReply(id uint32, msg string) ctrlMsg {
	return ctrlMsg{Type: msgError, ID: id, Error: msg}
}

// probeHeader is a decoded probe-datagram header.
type probeHeader struct {
	session uint32
	stream  uint32
	seq     int
}

// parseProbeHeader decodes and validates the fixed header of one probe
// datagram. It is total: any input — truncated, wrong magic, or
// adversarial — returns ok=false rather than panicking, so a malformed
// datagram can never take down the receiver loop. The fuzz harness
// (wire_fuzz_test.go) holds it to that.
func parseProbeHeader(b []byte) (h probeHeader, ok bool) {
	if len(b) < packetHeader || binary.BigEndian.Uint32(b[0:4]) != magic {
		return probeHeader{}, false
	}
	return probeHeader{
		session: binary.BigEndian.Uint32(b[4:8]),
		stream:  binary.BigEndian.Uint32(b[8:12]),
		seq:     int(binary.BigEndian.Uint32(b[12:16])),
	}, true
}
