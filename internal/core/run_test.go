package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// stubTransport resolves every stream instantly, advancing a fake clock
// by a fixed step per probe.
type stubTransport struct {
	now    time.Duration
	step   time.Duration
	probes int
}

func (s *stubTransport) Now() time.Duration { return s.now }

func (s *stubTransport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	s.probes++
	s.now += s.step
	rec := probe.NewRecord(spec)
	for i := range rec.Recv {
		rec.Recv[i] = s.now
		rec.MarkResolved()
	}
	return rec, nil
}

func spec10() probe.StreamSpec { return probe.Periodic(10*unit.Mbps, 100, 10) }

// run starts a run over t with the budget, no observer and a live
// context.
func run(t Transport, b Budget) *Run { return StartRun(context.Background(), t, b, nil) }

func TestBudgetZeroIsPassthrough(t *testing.T) {
	st := &stubTransport{step: time.Second}
	r := run(st, Budget{})
	big := probe.Periodic(10*unit.Mbps, 1500, 1000)
	for i := 0; i < 100; i++ {
		if _, err := r.Probe(big); err != nil {
			t.Fatalf("stream %d under a zero budget: %v", i, err)
		}
	}
	if st.probes != 100 {
		t.Errorf("underlying transport saw %d probes, want all 100", st.probes)
	}
}

func TestBudgetMaxStreams(t *testing.T) {
	st := &stubTransport{}
	r := run(st, Budget{MaxStreams: 2})
	for i := 0; i < 2; i++ {
		if _, err := r.Probe(spec10()); err != nil {
			t.Fatalf("stream %d within budget failed: %v", i, err)
		}
	}
	if _, err := r.Probe(spec10()); !errors.Is(err, ErrBudget) {
		t.Fatalf("third stream err = %v, want ErrBudget", err)
	}
	if st.probes != 2 {
		t.Errorf("underlying transport saw %d probes, want 2 (cap enforced before send)", st.probes)
	}
}

func TestBudgetMaxPackets(t *testing.T) {
	r := run(&stubTransport{}, Budget{MaxPackets: 25})
	if _, err := r.Probe(spec10()); err != nil { // 10 pkts
		t.Fatal(err)
	}
	if _, err := r.Probe(spec10()); err != nil { // 20 pkts
		t.Fatal(err)
	}
	if _, err := r.Probe(spec10()); !errors.Is(err, ErrBudget) { // would be 30
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetMaxBytes(t *testing.T) {
	r := run(&stubTransport{}, Budget{MaxBytes: 1500})
	if _, err := r.Probe(spec10()); err != nil { // 1000 B
		t.Fatal(err)
	}
	if _, err := r.Probe(spec10()); !errors.Is(err, ErrBudget) { // would be 2000
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestBudgetMaxDuration(t *testing.T) {
	st := &stubTransport{step: 40 * time.Millisecond}
	r := run(st, Budget{MaxDuration: 100 * time.Millisecond})
	for i := 0; i < 3; i++ { // clock: 40, 80, 120 ms after each
		if _, err := r.Probe(spec10()); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	// 120 ms elapsed since the run started: over budget.
	if _, err := r.Probe(spec10()); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// The refused stream costs nothing: Finish stamps the three sent.
	var rep Report
	r.Finish("stub", &rep)
	if rep.Tool != "stub" || rep.Streams != 3 || rep.Packets != 30 || rep.ProbeBytes != 3000 {
		t.Errorf("Finish stamped %q, %d streams, %d pkts, %d B; want stub, 3, 30, 3000",
			rep.Tool, rep.Streams, rep.Packets, rep.ProbeBytes)
	}
	if rep.Elapsed != 120*time.Millisecond {
		t.Errorf("elapsed = %v, want 120ms", rep.Elapsed)
	}
}

func TestBudgetMaxDurationChargesProjectedStreamTime(t *testing.T) {
	// Regression: MaxDuration used to be checked only against the time
	// elapsed *before* the stream, so a stream admitted at
	// elapsed < MaxDuration could run arbitrarily past the cap. The cap
	// must charge the stream's projected send duration up front, like
	// MaxPackets/MaxBytes charge projected counts.
	st := &stubTransport{step: 30 * time.Millisecond}
	r := run(st, Budget{MaxDuration: 50 * time.Millisecond})

	// 2 packets of 1250 B at 100 kbps: one 100 ms gap, so the stream
	// alone projects past the 50 ms cap even at elapsed = 0.
	long := probe.Periodic(100*unit.Kbps, 1250, 2)
	if d := long.Duration(); d != 100*time.Millisecond {
		t.Fatalf("stream duration = %v, want 100ms (test setup)", d)
	}
	if _, err := r.Probe(long); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-long stream err = %v, want ErrBudget", err)
	}
	if st.probes != 0 {
		t.Errorf("underlying transport saw %d probes, want 0 (cap enforced before send)", st.probes)
	}

	// A stream that fits exactly (projected 50 ms at elapsed 0) is
	// admitted; after it the clock stands at 30 ms, so the same stream
	// is rejected because elapsed + projection exceeds the cap.
	fits := probe.Periodic(200*unit.Kbps, 1250, 2) // 50 ms
	if _, err := r.Probe(fits); err != nil {
		t.Fatalf("exactly-fitting stream rejected: %v", err)
	}
	if _, err := r.Probe(fits); !errors.Is(err, ErrBudget) {
		t.Fatalf("second stream err = %v, want ErrBudget", err)
	}
}

// TestRunChecksContextFirst: a run whose context is done sends nothing
// and reports the context's error, even when its budget is spent too.
func TestRunChecksContextFirst(t *testing.T) {
	st := &stubTransport{}
	ctx, cancel := context.WithCancel(context.Background())
	r := StartRun(ctx, st, Budget{MaxStreams: 1}, nil)
	if _, err := r.Probe(spec10()); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := r.Probe(spec10()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.probes != 1 {
		t.Errorf("underlying transport saw %d probes, want 1 (nothing sent after cancel)", st.probes)
	}
}

func TestObserverSeesStreams(t *testing.T) {
	var events []StreamEvent
	r := StartRun(context.Background(), &stubTransport{step: time.Millisecond}, Budget{MaxStreams: 3}, func(ev StreamEvent) {
		events = append(events, ev)
	})
	for i := 0; i < 4; i++ {
		r.Probe(spec10()) // the fourth is refused by the budget
	}
	if len(events) != 3 {
		t.Fatalf("observer saw %d events, want the 3 the budget admitted", len(events))
	}
	for i, ev := range events {
		if ev.Stream != i+1 {
			t.Errorf("event %d: Stream = %d, want %d", i, ev.Stream, i+1)
		}
		if ev.Packets != 10 || ev.Bytes != 1000 || ev.Lost != 0 {
			t.Errorf("event %d: %+v, want 10 pkts / 1000 B / 0 lost", i, ev)
		}
	}
	if events[2].At != 3*time.Millisecond {
		t.Errorf("event 3 At = %v, want 3ms", events[2].At)
	}
}
