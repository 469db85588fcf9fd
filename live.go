package abw

import (
	"abw/internal/livenet"
)

// Receiver is the live probing sink: a concurrent multi-session
// measurement server — a UDP socket recording per-packet arrival
// timestamps, with a TCP control channel per sender session reporting
// them back. Many senders may probe one receiver at once; each control
// connection gets its own server-assigned session, and a session's
// state is reaped when its connection closes.
type Receiver = livenet.Receiver

// ReceiverConfig bounds a live receiver's resource usage: concurrent
// sessions, and outstanding streams/bytes per session. Zero fields
// take the defaults.
type ReceiverConfig = livenet.Config

// ReceiverStats is a snapshot of a live receiver's counters: active
// and lifetime sessions/streams, stamped packets, and drops by cause.
// Its JSON is the receiver's wire shape, the object the monitor serves
// under "receiver" in /api/status; cmd/abwprobe's -stats-json writes
// one per line with encoding/json.
type ReceiverStats = livenet.Stats

// LiveTransport implements Transport over real UDP sockets; it is what
// cmd/abwprobe's send mode and the liveprobe example run estimators
// on. Like every Transport it is single-stream: concurrent estimators
// dial one each.
type LiveTransport = livenet.Transport

// ListenReceiver starts a live receiver with default limits on the
// given TCP address (e.g. "127.0.0.1:0"); the UDP probe socket binds
// the same port.
func ListenReceiver(addr string) (*Receiver, error) {
	return livenet.ListenReceiver(addr)
}

// ListenReceiverConfig starts a live receiver with explicit limits.
func ListenReceiverConfig(addr string, cfg ReceiverConfig) (*Receiver, error) {
	return livenet.ListenReceiverConfig(addr, cfg)
}

// DialReceiver connects a live transport to a receiver's control
// address; every registered end-to-end tool can then Estimate over it.
func DialReceiver(addr string) (*LiveTransport, error) {
	return livenet.Dial(addr)
}
