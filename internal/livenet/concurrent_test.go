package livenet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// TestConcurrentSendersIsolated is the cross-sender collision
// regression. Before the session layer, stream IDs were a bare
// per-Transport counter and the receiver keyed one global map by them:
// every concurrent sender's first stream was ID 1, senders mixed each
// other's arrival timestamps, and one sender's done deleted another's
// in-flight stream (this test fails on that code with decode/result
// errors). With sessions, K senders × M streams each must all come
// back fully resolved and bit-exact, with zero cross-session
// contamination, and closing a sender must free all of its state.
func TestConcurrentSendersIsolated(t *testing.T) {
	const K, M = 8, 4
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	trs := make([]*Transport, K)
	for k := 0; k < K; k++ {
		tr, err := Dial(r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		tr.DrainWait = 200 * time.Millisecond
		trs[k] = tr
	}

	// Every sender uses a distinct packet size and count: a
	// cross-session stamp would either hit a size mismatch (counted) or
	// be structurally impossible, and a swapped result would have the
	// wrong length. Each sender runs M sequential streams; all K run
	// concurrently.
	var wg sync.WaitGroup
	errs := make([]error, K)
	resolved := make([]int, K) // packets stamped per sender (non-lost)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			count := 8 + 2*k
			size := unit.Bytes(64 + 16*k)
			for m := 0; m < M; m++ {
				rec, err := trs[k].Probe(probe.Periodic(20*unit.Mbps, size, count))
				if err != nil {
					errs[k] = fmt.Errorf("sender %d stream %d: %w", k, m, err)
					return
				}
				if !rec.Done() {
					errs[k] = fmt.Errorf("sender %d stream %d: record not fully resolved", k, m)
					return
				}
				if len(rec.Recv) != count || len(rec.Sent) != count {
					errs[k] = fmt.Errorf("sender %d stream %d: %d/%d entries, want %d",
						k, m, len(rec.Recv), len(rec.Sent), count)
					return
				}
				for i, at := range rec.Recv {
					if at != probe.Lost && at < 0 {
						errs[k] = fmt.Errorf("sender %d stream %d: negative timestamp at seq %d", k, m, i)
						return
					}
				}
				resolved[k] += count - rec.LossCount()
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Bit-exactness across the whole run: the receiver stamped exactly
	// the packets the senders got back as received — nothing was
	// double-stamped into a foreign stream or counted twice — and no
	// cross-session stamp was even attempted.
	totalResolved := 0
	for k := range resolved {
		totalResolved += resolved[k]
	}
	st := r.Stats()
	if st.Packets != uint64(totalResolved) {
		t.Errorf("receiver stamped %d packets, senders resolved %d", st.Packets, totalResolved)
	}
	if st.SizeMismatches != 0 || st.SourceMismatches != 0 {
		t.Errorf("cross-session contamination: %d size / %d source mismatches",
			st.SizeMismatches, st.SourceMismatches)
	}
	if st.Sessions != K || st.Streams != uint64(K*M) {
		t.Errorf("receiver saw %d sessions / %d streams, want %d / %d", st.Sessions, st.Streams, K, K*M)
	}

	// Closing one sender frees all of its receiver-side state while
	// the other sessions stay up.
	trs[0].Close()
	waitFor(t, "one session reaped", func() bool { return r.Stats().ActiveSessions == K-1 })
	for k := 1; k < K; k++ {
		trs[k].Close()
	}
	waitFor(t, "all sessions reaped", func() bool {
		st := r.Stats()
		return st.ActiveSessions == 0 && st.ActiveStreams == 0
	})
}

// TestPoolRunsConcurrently covers the sender-side concurrency the
// monitor's lease relies on: K dialed transports, one session each,
// every one probing at once from its own goroutine.
func TestPoolRunsConcurrently(t *testing.T) {
	const K = 3
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	trs := dialK(t, r.Addr(), K)
	seen := map[uint32]bool{}
	for _, tr := range trs {
		id := tr.SessionID()
		if seen[id] {
			t.Fatalf("dialed transports share session %d", id)
		}
		seen[id] = true
	}
	// A barrier releases the K probes together, so they run at once,
	// each over its own session.
	var wg, barrier sync.WaitGroup
	barrier.Add(K)
	errs := make([]error, K)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			barrier.Done()
			barrier.Wait()
			rec, err := tr.Probe(probe.Periodic(30*unit.Mbps, 200, 12))
			if err == nil && !rec.Done() {
				err = fmt.Errorf("transport %d: unresolved record", i)
			}
			errs[i] = err
		}(i, tr)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDialFailureClosesDialed: a dial past the receiver's session
// limit is refused with the receiver's reason, and closing the
// sessions already dialed returns the receiver to zero active.
func TestPoolDialFailureClosesDialed(t *testing.T) {
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	trs := dialK(t, r.Addr(), 2)
	if tr, err := Dial(r.Addr()); err == nil {
		tr.Close()
		t.Fatal("a dial over the session limit succeeded")
	} else if !strings.Contains(err.Error(), "session limit") {
		t.Errorf("over-limit dial = %v, want the receiver's session-limit refusal", err)
	}
	for _, tr := range trs {
		tr.Close()
	}
	waitFor(t, "dialed sessions reaped", func() bool { return r.Stats().ActiveSessions == 0 })
}

// dialK dials k transports to one receiver, closed at cleanup.
func dialK(tb testing.TB, addr string, k int) []*Transport {
	tb.Helper()
	trs := make([]*Transport, k)
	for i := range trs {
		tr, err := Dial(addr)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(tr.Close)
		trs[i] = tr
	}
	return trs
}

// BenchmarkConcurrentSessions measures K concurrent sessions each
// sending one paced stream per iteration — the receiver's routing,
// locking, and reporting under contention.
func BenchmarkConcurrentSessions(b *testing.B) {
	const K = 4
	r, err := ListenReceiver("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	trs := dialK(b, r.Addr(), K)
	spec := probe.Periodic(500*unit.Mbps, 500, 20)
	errs := make([]error, K)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for i, tr := range trs {
			wg.Add(1)
			go func(i int, tr *Transport) {
				defer wg.Done()
				_, errs[i] = tr.Probe(spec)
			}(i, tr)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
}
