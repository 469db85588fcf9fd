package probe

import (
	"time"

	"abw/internal/sim"
	"abw/internal/unit"
)

// SendOverSim schedules the probing stream on the simulator starting at
// the given virtual time and returns the record, which fills in as the
// simulation executes. The caller is responsible for running the
// simulation far enough for all packets to arrive (or be dropped).
//
// The stream goes to the simulator whole (Sim.InjectStream): over
// sealed links that fold it is carried as one batch, at most one event
// a packet; elsewhere each packet is injected on its own. The record
// is the same either way.
//
// flow labels the probe packets so multiple concurrent streams can share
// a path without confusing the receiver.
func SendOverSim(s *sim.Sim, route []*sim.Link, spec StreamSpec, at time.Duration, flow int) (*Record, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The send times are Departures() shifted by at, summed in place.
	rec := NewRecord(spec)
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
	// probing allocates per stream, not per packet.
	onArrive := func(p *sim.Packet, t time.Duration) {
		rec.Recv[p.Seq] = t
		rec.MarkResolved()
	}
	onDrop := func(*sim.Packet, *sim.Link, time.Duration) {
		rec.MarkResolved()
	}
	s.InjectStream(sim.Packet{Size: spec.PktSize, Kind: sim.KindProbe, Flow: flow, Route: route,
		OnArrive: onArrive, OnDrop: onDrop}, rec.Sent)
	return rec, nil
}
