package livenet

import (
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// fakeReceiver accepts control connections and completes the session
// handshake under sequential session IDs, then answers every control
// request with reply — or never, when reply is empty: the shape of a
// receiver that died (or wedged) mid-run. Each request it reads is
// signalled on heard.
func fakeReceiver(t *testing.T, reply string) (addr string, heard <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	h := make(chan struct{}, 64)
	go func() {
		session := uint32(0)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			session++
			json.NewEncoder(conn).Encode(ctrlMsg{Type: msgSession, Session: session})
			// Keep the connection open until the sender closes it.
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					select {
					case h <- struct{}{}:
					default:
					}
					if reply != "" {
						io.WriteString(c, reply)
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), h
}

// TestPoolCloseIdempotent: Transport.Close is safe to call repeatedly
// and concurrently — a leased session can be closed both by a run's
// watchdog and by its discard — and the receiver reaps the session.
func TestPoolCloseIdempotent(t *testing.T) {
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); tr.Close() }()
	}
	wg.Wait()
	tr.Close()
	if _, err := tr.Probe(probe.Pair(10*unit.Mbps, 100)); err == nil {
		t.Error("Probe on a closed transport succeeded")
	}
	waitFor(t, "session reaped after close", func() bool { return r.Stats().ActiveSessions == 0 })
}

// TestPoolCloseUnblocksStuckLease is the goroutine-leak regression: a
// probe against a receiver that stopped answering blocks inside a
// socket read, and Close returns it with an error at once, well inside
// the reply's own bound. The monitor's watchdog relies on exactly that.
// Run under -race.
func TestPoolCloseUnblocksStuckLease(t *testing.T) {
	addr, heard := fakeReceiver(t, "")
	const K = 3
	trs := make([]*Transport, K)
	errs := make(chan error, K)
	for i := range trs {
		tr, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[i] = tr
		go func() {
			_, err := tr.Probe(probe.Periodic(10*unit.Mbps, 100, 4)) // blocks: no "ready" ever comes
			errs <- err
		}()
	}
	for i := 0; i < K; i++ {
		<-heard // every stream request is on the wire: each probe waits for "ready"
	}
	begin := time.Now()
	for _, tr := range trs {
		tr.Close()
	}
	deadline := time.After(ctrlWait / 2)
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a probe on a closed transport returned nil")
			}
		case <-deadline:
			t.Fatalf("probes still blocked %v after Close: only the reply bound would end them", time.Since(begin))
		}
	}
}

// TestPoolLeaseRedial: a transport whose control channel
// desynchronized latches broken — it reports Broken and fails every
// later Probe at once — and a fresh Dial gets a new, healthy session,
// which is how the monitor replaces a discarded one.
func TestPoolLeaseRedial(t *testing.T) {
	addr, _ := fakeReceiver(t, "garbage\n") // no reply decodes
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	spec := probe.Pair(10*unit.Mbps, 100)
	if tr.Broken() {
		t.Fatal("a fresh transport reports broken")
	}
	if _, err := tr.Probe(spec); err == nil {
		t.Fatal("Probe succeeded on an undecodable reply")
	}
	if !tr.Broken() {
		t.Fatal("an undecodable reply did not latch the transport broken")
	}
	begin := time.Now()
	if _, err := tr.Probe(spec); err == nil || !strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("Probe on a broken transport = %v, want the desynchronized error", err)
	}
	if d := time.Since(begin); d > ctrlWait/2 {
		t.Errorf("Probe on a broken transport took %v, want an immediate failure", d)
	}
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	if fresh.SessionID() == tr.SessionID() || fresh.Broken() {
		t.Errorf("redial got session %d (broken %v), want a new healthy one beside %d",
			fresh.SessionID(), fresh.Broken(), tr.SessionID())
	}
}
