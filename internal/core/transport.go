package core

import (
	"fmt"
	"time"

	"abw/internal/probe"
	"abw/internal/sim"
	"abw/internal/unit"
)

// SimTransport runs probing streams over a simulated path. The cross
// traffic must already be scheduled on the simulation; each Probe call
// advances virtual time until the stream resolves, so consecutive calls
// observe consecutive (disjoint) slices of the cross-traffic process —
// exactly how a real tool samples a live path.
type SimTransport struct {
	sim  *sim.Sim
	path *sim.Path
	// Spacing is the idle guard inserted before each stream so streams
	// do not queue behind each other (default 10 ms).
	Spacing time.Duration
	// MaxWait bounds how long after its send duration a stream may take
	// to resolve before the remaining packets are written off as stuck
	// (default 2 s of virtual time).
	MaxWait time.Duration

	flow int
}

// NewSimTransport wires a transport over an existing simulation and
// path.
func NewSimTransport(s *sim.Sim, p *sim.Path) *SimTransport {
	return &SimTransport{sim: s, path: p}
}

func (st *SimTransport) spacing() time.Duration {
	if st.Spacing > 0 {
		return st.Spacing
	}
	return 10 * time.Millisecond
}

func (st *SimTransport) maxWait() time.Duration {
	if st.MaxWait > 0 {
		return st.MaxWait
	}
	return 2 * time.Second
}

// Now implements Transport on virtual time.
func (st *SimTransport) Now() time.Duration { return st.sim.Now() }

// Probe implements Transport.
func (st *SimTransport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	if st.sim == nil || st.path == nil {
		return nil, fmt.Errorf("core: SimTransport missing simulation or path")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st.flow++
	start := st.sim.Now() + st.spacing()
	rec := st.send(spec, start)
	dur := spec.Duration()
	deadline := start + dur + st.maxWait()
	// Advance in steps scaled to the stream so short probes (packet
	// pairs) do not overshoot virtual time: the clock a Probe call
	// consumes must track the stream's own footprint, or long
	// experiments drift past their scheduled cross traffic.
	step := dur / 4
	if step < time.Millisecond {
		step = time.Millisecond
	}
	if step > 50*time.Millisecond {
		step = 50 * time.Millisecond
	}
	for !rec.Done() && st.sim.Now() < deadline {
		d := deadline - st.sim.Now()
		if d > step {
			d = step
		}
		st.sim.RunUntil(st.sim.Now() + d)
	}
	return rec, nil
}

// send schedules the validated stream on the simulator from virtual
// time at, labelled with the transport's current flow, and returns its
// record, which fills in as the simulation runs.
//
// The stream goes to the simulator whole (Sim.InjectStream): over
// sealed links that fold it is carried as one batch, at most one event
// a packet; elsewhere each packet is injected on its own. The record
// is the same either way.
func (st *SimTransport) send(spec probe.StreamSpec, at time.Duration) *probe.Record {
	// The send times are Departures() shifted by at, summed in place.
	rec := probe.NewRecord(spec)
	rec.Sent[0] = at
	if spec.Gaps != nil {
		for i, g := range spec.Gaps {
			rec.Sent[i+1] = rec.Sent[i] + g
		}
	} else {
		gap := unit.GapFor(spec.PktSize, spec.Rate)
		for i := 1; i < spec.Count; i++ {
			rec.Sent[i] = rec.Sent[i-1] + gap
		}
	}
	// One pair of callbacks serves the whole stream (the arrival reads
	// the sequence number off the packet), and the packets the
	// simulator hands them are recycled as soon as they return, so
	// probing allocates per stream, not per packet. The pair is the
	// stream's own: a stream that outlives MaxWait keeps resolving into
	// its record while the next stream runs.
	onArrive := func(p *sim.Packet, t time.Duration) {
		rec.Recv[p.Seq] = t
		rec.MarkResolved()
	}
	onDrop := func(*sim.Packet, *sim.Link, time.Duration) {
		rec.MarkResolved()
	}
	st.sim.InjectStream(sim.Packet{Size: spec.PktSize, Kind: sim.KindProbe, Flow: st.flow, Route: st.path.Route(),
		OnArrive: onArrive, OnDrop: onDrop}, rec.Sent)
	return rec
}

var _ Transport = (*SimTransport)(nil)
