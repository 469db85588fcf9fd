package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// ErrBudget is the sentinel wrapped by every budget-exhaustion error, so
// callers can distinguish "the tool ran out of probing budget" from a
// measurement failure with errors.Is.
var ErrBudget = errors.New("probing budget exhausted")

// Budget caps the probing effort of one estimation run. Zero fields are
// unlimited. The paper's summary demands tool comparisons "under
// reproducible and controllable conditions" at equal probing budgets;
// enforcing the caps in the run's transport — below every tool — makes
// cross-tool comparisons budget-fair by construction rather than by
// per-tool configuration discipline.
type Budget struct {
	// MaxStreams caps the number of probing streams.
	MaxStreams int `json:"max_streams,omitempty"`
	// MaxPackets caps the total probe packets sent.
	MaxPackets int `json:"max_packets,omitempty"`
	// MaxBytes caps the total probing volume (intrusiveness).
	MaxBytes unit.Bytes `json:"max_bytes,omitempty"`
	// MaxDuration caps the estimation latency on the transport's clock
	// (virtual time on the simulator). It admits a stream only if the
	// run's elapsed time plus the stream's send span fits the cap; what
	// the transport spends around the stream is not charged. A run's
	// Elapsed can therefore pass the cap: on the simulator by at most
	// SimTransport's Spacing + MaxWait (the idle guard before the last
	// admitted stream and the wait for its packets to resolve).
	MaxDuration time.Duration `json:"max_duration_ns,omitempty"`
}

// IsZero reports whether the budget imposes no cap at all.
func (b Budget) IsZero() bool {
	return b.MaxStreams <= 0 && b.MaxPackets <= 0 && b.MaxBytes <= 0 && b.MaxDuration <= 0
}

// StreamEvent is one per-stream progress notification: what an observer
// learns each time a probing stream resolves. Estimation runs are
// opaque between their start and their report; the observer hook is the
// seam that makes them observable from outside — a progress bar in
// cmd/abwprobe, a metric sink in a long-running service.
type StreamEvent struct {
	// Stream is the 1-based ordinal of the stream within the run.
	Stream int
	// Packets and Bytes are the stream's size as sent.
	Packets int
	Bytes   unit.Bytes
	// Lost counts the stream's packets known lost.
	Lost int
	// At is the transport clock when the stream resolved.
	At time.Duration
}

// Observer receives per-stream progress events. Calls happen on the
// estimating goroutine, between streams; a slow observer slows probing.
type Observer func(StreamEvent)

// Run is the transport of one estimation run: the one seam between a
// tool and the path it probes. Each Probe checks the run's context,
// then its budget, before the stream is sent; after the stream
// resolves it counts the stream's cost and tells the observer. Finish
// stamps the counts on the tool's report, so a tool only probes and
// infers: it cannot probe past a cancelled context or a spent budget,
// and cannot miscount its cost. Like every Transport, a Run is not
// safe for concurrent use; start one per estimation run.
type Run struct {
	ctx    context.Context
	t      Transport
	budget Budget
	obs    Observer

	start   time.Duration
	streams int
	packets int
	bytes   unit.Bytes
}

// StartRun starts a run over t under ctx, the budget (zero fields
// unlimited) and the observer (nil for none). The run's clock starts
// now.
func StartRun(ctx context.Context, t Transport, b Budget, obs Observer) *Run {
	return &Run{ctx: ctx, t: t, budget: b, obs: obs, start: t.Now()}
}

// Now implements Transport.
func (r *Run) Now() time.Duration { return r.t.Now() }

// Probe implements Transport. A stream is sent only while the context
// is live and the stream fits every cap of the budget; a stream in
// flight completes, so cancellation takes effect at stream boundaries.
func (r *Run) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	b := r.budget
	switch {
	case b.MaxStreams > 0 && r.streams+1 > b.MaxStreams:
		return nil, fmt.Errorf("core: %w: stream %d exceeds MaxStreams %d", ErrBudget, r.streams+1, b.MaxStreams)
	case b.MaxPackets > 0 && r.packets+spec.Count > b.MaxPackets:
		return nil, fmt.Errorf("core: %w: %d+%d packets exceed MaxPackets %d", ErrBudget, r.packets, spec.Count, b.MaxPackets)
	case b.MaxBytes > 0 && r.bytes+spec.Bytes() > b.MaxBytes:
		return nil, fmt.Errorf("core: %w: %d+%d bytes exceed MaxBytes %d", ErrBudget, r.bytes, spec.Bytes(), b.MaxBytes)
	case b.MaxDuration > 0 && r.t.Now()-r.start+spec.Duration() > b.MaxDuration:
		// Charge the stream's projected send duration, exactly like
		// MaxPackets/MaxBytes charge projected counts: checking only the
		// elapsed time before the stream would let a stream admitted at
		// elapsed < MaxDuration run arbitrarily past the cap.
		return nil, fmt.Errorf("core: %w: %v elapsed + %v stream exceed MaxDuration %v",
			ErrBudget, r.t.Now()-r.start, spec.Duration(), b.MaxDuration)
	}
	rec, err := r.t.Probe(spec)
	if err != nil {
		return nil, err
	}
	r.streams++
	r.packets += spec.Count
	r.bytes += spec.Bytes()
	if r.obs != nil {
		r.obs(StreamEvent{
			Stream:  r.streams,
			Packets: spec.Count,
			Bytes:   spec.Bytes(),
			Lost:    rec.LossCount(),
			At:      r.t.Now(),
		})
	}
	return rec, nil
}

// Finish stamps the run on the tool's report: the tool's name and the
// run's cost — its resolved streams, their packets and bytes, and the
// time elapsed on the transport's clock since StartRun.
func (r *Run) Finish(tool string, rep *Report) {
	rep.Tool = tool
	rep.Streams, rep.Packets, rep.ProbeBytes = r.streams, r.packets, r.bytes
	rep.Elapsed = r.t.Now() - r.start
}

var _ Transport = (*Run)(nil)
