package livenet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"abw/internal/core"
	"abw/internal/livenet/ingest"
	"abw/internal/probe"
	"abw/internal/unit"
)

// Transport is the sending side, implementing core.Transport over UDP.
// Like every core.Transport it is single-stream and not safe for
// concurrent use; for concurrent estimation dial one Transport per
// estimator, and the receiver keeps the sessions apart.
type Transport struct {
	ctrl    net.Conn
	dec     *json.Decoder
	enc     *json.Encoder
	udp     *net.UDPConn
	epoch   time.Time
	session uint32

	// DrainWait is how long the receiver may wait for stragglers after
	// the last packet is sent (default 500 ms).
	DrainWait time.Duration

	nextID uint32
	buf    []byte
	// bw sends a zero-gap periodic stream as one sendmmsg run so a
	// back-to-back train leaves the host without per-packet syscall
	// jitter between its packets; slab/train are its reusable packet
	// buffers, grown on demand and reused across Probe calls.
	bw    *ingest.Writer
	slab  []byte
	train [][]byte
	// broken latches when the control channel's request/reply
	// alignment can no longer be trusted (a reply that never arrived
	// or did not decode); every later Probe fails fast rather than
	// misreading a stale reply and leaking receiver-side streams.
	broken bool
}

// Opts tunes a Transport's probe socket. The zero value is the
// default configuration.
type Opts struct {
	// SndBuf requests an SO_SNDBUF of this many bytes on the probe
	// socket (0 leaves the OS default) — headroom for long back-to-back
	// trains that leave in one batched send. Best effort: the kernel
	// clamps to wmem_max.
	SndBuf int
}

// Dial connects to a receiver's control address and completes the
// session handshake: the receiver assigns the session ID every probe
// packet will carry. A receiver at its session limit refuses with a
// descriptive error.
func Dial(addr string) (*Transport, error) { return DialOpts(addr, Opts{}) }

// DialOpts is Dial with explicit socket options.
func DialOpts(addr string, opts Opts) (*Transport, error) {
	ctrl, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: control dial: %w", err)
	}
	dec := json.NewDecoder(bufio.NewReader(ctrl))
	ctrl.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hello ctrlMsg
	if err := dec.Decode(&hello); err != nil {
		ctrl.Close()
		return nil, fmt.Errorf("livenet: session handshake: %w", err)
	}
	ctrl.SetReadDeadline(time.Time{})
	switch hello.Type {
	case msgSession:
	case msgError:
		ctrl.Close()
		return nil, fmt.Errorf("livenet: receiver refused session: %s", hello.Error)
	default:
		ctrl.Close()
		return nil, fmt.Errorf("livenet: unexpected handshake message %q", hello.Type)
	}
	raddr := ctrl.RemoteAddr().(*net.TCPAddr)
	udp, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: raddr.IP, Port: raddr.Port})
	if err != nil {
		ctrl.Close()
		return nil, fmt.Errorf("livenet: probe dial: %w", err)
	}
	if opts.SndBuf > 0 {
		udp.SetWriteBuffer(opts.SndBuf)
	}
	return &Transport{
		ctrl:    ctrl,
		dec:     dec,
		enc:     json.NewEncoder(ctrl),
		udp:     udp,
		bw:      ingest.NewWriter(udp),
		epoch:   time.Now(),
		session: hello.Session,
		buf:     make([]byte, maxPacket),
	}, nil
}

// SessionID returns the receiver-assigned session identifier.
func (t *Transport) SessionID() uint32 { return t.session }

// Batched reports whether zero-gap packet runs coalesce into batched
// sends (sendmmsg) on this platform, or fall back to per-packet writes.
func (t *Transport) Batched() bool { return t.bw.Batched() }

// Close releases the sockets; the receiver reaps the session's state.
// It is safe to call more than once, and concurrently with itself.
func (t *Transport) Close() {
	t.ctrl.Close()
	t.udp.Close()
}

// Broken reports whether an unanswered request desynchronized the
// control channel: every later Probe fails, so the session is only fit
// to be closed and redialed.
func (t *Transport) Broken() bool { return t.broken }

// Now implements core.Transport on the sender's monotonic clock.
func (t *Transport) Now() time.Duration { return time.Since(t.epoch) }

// ctrlWait bounds how long the receiver may take to answer a control
// request beyond any drain wait the request itself declares.
const ctrlWait = 2 * time.Second

func (t *Transport) drainWait() time.Duration {
	if t.DrainWait > 0 {
		return t.DrainWait
	}
	return 500 * time.Millisecond
}

// Probe implements core.Transport: send one stream, collect the
// receiver's timestamps. A receiver refusal (limits, unknown stream)
// surfaces as a descriptive error carrying the receiver's reason.
//
// A stream costs one setup round trip ("stream" → "ready"), the send
// span itself, timed from when the paced loop starts so packet 0 leaves
// at once, and one result round trip ("done" → "result"). Both replies
// are bounded: "ready" by ctrlWait, "result" by the drain wait plus
// ctrlWait. A reply that does not arrive in time leaves the control
// channel desynchronized, and every later Probe fails fast.
func (t *Transport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	if t.broken {
		return nil, fmt.Errorf("livenet: control channel desynchronized by an unanswered request; redial the receiver")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if int(spec.PktSize) < packetHeader {
		return nil, fmt.Errorf("livenet: packet size %d below header size %d", spec.PktSize, packetHeader)
	}
	if int(spec.PktSize) > maxPacket {
		return nil, fmt.Errorf("livenet: packet size %d above datagram limit %d", spec.PktSize, maxPacket)
	}
	t.nextID++
	id := t.nextID
	if err := t.enc.Encode(ctrlMsg{Type: msgStream, ID: id, Count: spec.Count, Size: int(spec.PktSize)}); err != nil {
		return nil, fmt.Errorf("livenet: stream setup: %w", err)
	}
	ready, err := t.reply(ctrlWait)
	if err != nil {
		return nil, fmt.Errorf("livenet: stream setup reply: %w", err)
	}
	if ready.Type == msgError {
		return nil, fmt.Errorf("livenet: receiver rejected stream %d: %s", id, ready.Error)
	}
	if ready.Type != msgReady || ready.ID != id {
		return nil, fmt.Errorf("livenet: unexpected %q reply to stream %d setup", ready.Type, id)
	}
	rec := probe.NewRecord(spec)
	pkt := t.buf[:spec.PktSize]
	for i := range pkt {
		pkt[i] = 0
	}
	binary.BigEndian.PutUint32(pkt[0:4], magic)
	binary.BigEndian.PutUint32(pkt[4:8], t.session)
	binary.BigEndian.PutUint32(pkt[8:12], id)

	// Packet i leaves at offset i·gap for a periodic stream, or at the
	// running sum of Gaps, as SimTransport.send schedules it. Validate
	// refuses a non-positive explicit gap, so departures coincide only
	// when a periodic gap rounds to 0, and then the whole stream does.
	var gap time.Duration
	if spec.Gaps == nil {
		gap = unit.GapFor(spec.PktSize, spec.Rate)
	}
	if spec.Gaps == nil && gap == 0 && t.bw.Batched() {
		// A back-to-back train leaves as one sendmmsg run, without
		// per-packet syscall jitter between its packets. One stamp
		// serves it: the intended gaps are zero, so distinct stamps
		// would only record scheduler noise, not departures.
		train := t.trainBufs(spec.Count, int(spec.PktSize), id)
		at := time.Since(t.epoch)
		for k := range rec.Sent {
			rec.Sent[k] = at
		}
		if err := t.bw.WriteBatch(train); err != nil {
			t.abortStream(id)
			return nil, fmt.Errorf("livenet: send train 0..%d: %w", spec.Count-1, err)
		}
	} else {
		// The paced send loop: lock the OS thread and spin for the last
		// stretch before each departure to defeat sleep quantization.
		runtime.LockOSThread()
		start := time.Now()
		var off time.Duration
		for i := 0; i < spec.Count; i++ {
			if i > 0 {
				if spec.Gaps != nil {
					off += spec.Gaps[i-1]
				} else {
					off += gap
				}
			}
			pace(start.Add(off))
			binary.BigEndian.PutUint32(pkt[12:16], uint32(i))
			rec.Sent[i] = time.Since(t.epoch)
			if _, err := t.udp.Write(pkt); err != nil {
				runtime.UnlockOSThread()
				t.abortStream(id)
				return nil, fmt.Errorf("livenet: send %d: %w", i, err)
			}
		}
		runtime.UnlockOSThread()
	}

	if err := t.enc.Encode(ctrlMsg{Type: msgDone, ID: id, DeadlineMs: int(t.drainWait().Milliseconds())}); err != nil {
		return nil, fmt.Errorf("livenet: done: %w", err)
	}
	res, err := t.reply(t.drainWait() + ctrlWait)
	if err != nil {
		return nil, fmt.Errorf("livenet: result reply: %w", err)
	}
	if res.Type == msgError {
		return nil, fmt.Errorf("livenet: receiver error for stream %d: %s", id, res.Error)
	}
	if res.Type != msgResult || res.ID != id {
		return nil, fmt.Errorf("livenet: unexpected %q reply to stream %d done", res.Type, id)
	}
	if len(res.RecvNs) != spec.Count {
		return nil, fmt.Errorf("livenet: result has %d entries, want %d", len(res.RecvNs), spec.Count)
	}
	for i, ns := range res.RecvNs {
		if ns < 0 {
			rec.Recv[i] = probe.Lost
		} else {
			rec.Recv[i] = time.Duration(ns)
		}
		rec.MarkResolved()
	}
	return rec, nil
}

// reply reads the receiver's answer to the request just written,
// waiting at most d. A reply that fails to arrive or decode latches
// broken: a late one would otherwise answer the next request.
func (t *Transport) reply(d time.Duration) (ctrlMsg, error) {
	t.ctrl.SetReadDeadline(time.Now().Add(d))
	var m ctrlMsg
	err := t.dec.Decode(&m)
	t.ctrl.SetReadDeadline(time.Time{})
	if err != nil {
		t.broken = true
	}
	return m, err
}

// trainBufs sizes the reusable train buffers for a stream of n packets
// of the given size and writes every packet's whole header, sequence
// number included. Buffers persist across Probe calls, so steady-state
// probing does not allocate here.
func (t *Transport) trainBufs(n, size int, stream uint32) [][]byte {
	if cap(t.slab) < n*size {
		t.slab = make([]byte, n*size)
	}
	t.slab = t.slab[:n*size]
	if cap(t.train) < n {
		t.train = make([][]byte, n)
	}
	t.train = t.train[:n]
	for k := 0; k < n; k++ {
		b := t.slab[k*size : (k+1)*size]
		for i := range b {
			b[i] = 0
		}
		binary.BigEndian.PutUint32(b[0:4], magic)
		binary.BigEndian.PutUint32(b[4:8], t.session)
		binary.BigEndian.PutUint32(b[8:12], stream)
		binary.BigEndian.PutUint32(b[12:16], uint32(k))
		t.train[k] = b
	}
	return t.train
}

// abortStream best-effort releases a stream the receiver is still
// holding after a failed send — otherwise each such failure would leak
// one slot of the session's stream/byte limits until disconnect. The
// zero-deadline done frees the receiver side immediately; the reply
// (result or error) is drained so the control channel stays in
// request/reply sync for the next Probe.
func (t *Transport) abortStream(id uint32) {
	if t.enc.Encode(ctrlMsg{Type: msgDone, ID: id, DeadlineMs: 0}) != nil {
		t.broken = true
		return
	}
	t.reply(ctrlWait)
}

// pace blocks until the target instant: sleep while far, spin when near.
func pace(target time.Time) {
	for {
		d := time.Until(target)
		if d <= 0 {
			return
		}
		if d > 200*time.Microsecond {
			time.Sleep(d - 100*time.Microsecond)
			continue
		}
		// Busy-wait the final stretch.
		for time.Now().Before(target) {
		}
		return
	}
}

var _ core.Transport = (*Transport)(nil)
