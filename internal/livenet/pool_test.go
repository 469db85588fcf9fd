package livenet

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// silentReceiver accepts control connections and completes the session
// handshake, then never answers again — the shape of a receiver that
// died (or wedged) mid-fan-out. Probes against it block forever unless
// something closes the transport.
func silentReceiver(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		session := uint32(0)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			session++
			json.NewEncoder(conn).Encode(ctrlMsg{Type: msgSession, Session: session})
			// Keep the connection open and silent; close only when the
			// listener dies.
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestPoolCloseIdempotent: Close is safe to call repeatedly and
// concurrently, and fails future Gets with ErrPoolClosed.
func TestPoolCloseIdempotent(t *testing.T) {
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	p, err := DialPool(r.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	p.Close()
	if _, err := p.Get(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Get on closed pool = %v, want ErrPoolClosed", err)
	}
	waitFor(t, "sessions reaped after close", func() bool { return r.Stats().ActiveSessions == 0 })
}

// TestPoolCloseUnblocksStuckLease is the goroutine-leak regression: a
// probe on a leased transport against a receiver that stopped
// answering blocks inside a socket read. Close closes leased
// transports too, so every stuck probe returns with an error. Run
// under -race.
func TestPoolCloseUnblocksStuckLease(t *testing.T) {
	addr := silentReceiver(t)
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	started := make(chan struct{}, 3)
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		tr, err := p.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			started <- struct{}{}
			_, err := tr.Probe(probe.Periodic(10*unit.Mbps, 100, 4)) // blocks: no "ready" ever comes
			errs <- err
		}()
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	p.Close()
	deadline := time.After(10 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a probe on a closed pool's transport returned nil")
			}
		case <-deadline:
			t.Fatal("probes still blocked 10s after Close: stuck leases leaked")
		}
	}
}

// TestPoolLeaseRedial: Get hands out each transport to one caller at a
// time; an unhealthy Put discards the session and the next Get redials
// a fresh one instead of resurrecting the broken transport.
func TestPoolLeaseRedial(t *testing.T) {
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	p, err := DialPool(r.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	ctx := context.Background()
	a, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two concurrent leases returned the same transport")
	}

	// With both slots leased, a third Get must block until a Put.
	blocked, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := p.Get(blocked); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get with all slots leased = %v, want deadline exceeded", err)
	}

	// A healthy Put returns the same session; an unhealthy one redials.
	aID := a.SessionID()
	p.Put(a, true)
	a2, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a2.SessionID() != aID {
		t.Errorf("healthy Put was not reused: session %d -> %d", aID, a2.SessionID())
	}
	p.Put(a2, false)
	bID := b.SessionID()
	a3, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a3.SessionID() == aID || a3.SessionID() == bID {
		t.Errorf("unhealthy Put resurrected session %d", a3.SessionID())
	}
	// The fresh session must actually probe.
	rec, err := a3.Probe(probe.Periodic(20*unit.Mbps, 200, 8))
	if err != nil || !rec.Done() {
		t.Fatalf("redialed transport cannot probe: %v", err)
	}
	p.Put(a3, true)
	p.Put(b, true)
	waitFor(t, "discarded session reaped", func() bool { return r.Stats().ActiveSessions == 2 })
}
