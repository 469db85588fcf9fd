package main

import (
	"fmt"
	"math"
	"time"

	"abw/internal/probe"
	"abw/internal/unit"
)

// gapClass accumulates the paced streams of one intended gap.
type gapClass struct {
	name          string
	intended      time.Duration
	guarded       bool      // apply the validity guard to this class
	recvErrUs     []float64 // |receive gap - recorded send gap|
	sendErrUs     []float64 // |recorded send gap - intended gap|: generator lateness
	within5, gaps int
	streams       int // streams delivered in full
	invalid       int // of those, streams the sender itself could not pace
}

// add takes one fully delivered stream. Validity guard: a stream whose
// sender missed the intended gap by more than 5 % on a tenth of its
// gaps was sent while the box was too noisy to judge the receiver; it
// contributes lateness samples but no gap numbers.
func (g *gapClass) add(rec *probe.Record) {
	g.streams++
	n := len(rec.Sent) - 1
	sendErr := make([]float64, n)
	for k := 0; k < n; k++ {
		sendErr[k] = math.Abs(float64(rec.Sent[k+1]-rec.Sent[k]-g.intended)) / 1e3
	}
	g.sendErrUs = append(g.sendErrUs, sendErr...)
	if g.guarded && percentile(sendErr, 0.90) > 0.05*float64(g.intended)/1e3 {
		g.invalid++
		return
	}
	for k := 0; k < n; k++ {
		send := rec.Sent[k+1] - rec.Sent[k]
		recv := rec.Recv[k+1] - rec.Recv[k]
		err := math.Abs(float64(recv - send))
		g.recvErrUs = append(g.recvErrUs, err/1e3)
		g.gaps++
		if err <= 0.05*float64(send) {
			g.within5++
		}
	}
}

func (g *gapClass) within() float64 {
	if g.gaps == 0 {
		return 0
	}
	return float64(g.within5) / float64(g.gaps)
}

// runLive drives one real receiver and one dialed session over the host
// loopback, closed loop, in two phases that use the ingest layer in
// opposite ways: back-to-back trains, where per-packet cost is
// everything and gaps mean nothing, then paced streams, one datagram
// per wake-up, where stamp fidelity is everything.
func runLive(o opts, res *result) error {
	rc, tr, err := listenAndDial()
	if err != nil {
		return err
	}
	defer rc.Close()
	defer tr.Close()
	st0 := rc.Stats()
	res.note("live: all traffic crosses the host loopback (127.0.0.1), never a real link")
	res.note("live: ingest.kernel_ts %v, rcvbuf granted %d bytes, batched sends %v", st0.KernelTimestamps, st0.RcvBufBytes, tr.Batched())

	trainFor, paced200For, paced1msFor := 0.35*o.seconds, 0.45*o.seconds, 0.20*o.seconds
	if o.short {
		trainFor, paced200For, paced1msFor = 0.3, 1.5, 0.3
	}
	root := o.tr.begin("live", -1, 0)
	op, sent, lost := 0, 0, 0

	// probeOnce sends one stream and applies the per-stream checks.
	var lastCPU float64 // CPU the process used during the last probeOnce
	probeOnce := func(parent int, name string, spec probe.StreamSpec) (*probe.Record, time.Duration, bool) {
		op++
		res.attempted++
		id := o.tr.begin(name, parent, op)
		cpu0, t0 := cpuSeconds(), time.Now()
		rec, err := tr.Probe(spec)
		d := time.Since(t0)
		lastCPU = cpuSeconds() - cpu0
		o.tr.end(id)
		if err != nil {
			res.fail(1, "%s: %v", name, err)
			return nil, d, false
		}
		sent += spec.Count
		if len(rec.Recv) != spec.Count || len(rec.Sent) != spec.Count {
			res.fail(1, "%s: record has %d/%d entries, want %d", name, len(rec.Sent), len(rec.Recv), spec.Count)
			return nil, d, false
		}
		if n := rec.LossCount(); n > 0 {
			lost += n
			res.fail(1, "%s: %d of %d packets lost", name, n, spec.Count)
			return rec, d, false
		}
		return rec, d, true
	}

	// Phase 1: trains. At 10^6 Gbps the gap rounds to zero, so packets
	// leave in sendmmsg runs and the receiver's drain rate is what is
	// measured. (At 1000 Gbps it rounds to 1 ns for 64 B and 12 ns for
	// 1472 B, which the transport paces packet by packet.)
	trains := []struct {
		spec probe.StreamSpec
		name string
		units
	}{
		{spec: probe.Periodic(1e6*unit.Gbps, 64, 4096), name: "train.64B"},
		{spec: probe.Periodic(1e6*unit.Gbps, 1472, 1024), name: "train.1472B"},
	}
	phase := o.tr.begin("phase.train", root, 0)
	for i, start := 0, time.Now(); time.Since(start).Seconds() < trainFor; i++ {
		t := &trains[i%2]
		if rec, d, _ := probeOnce(phase, t.name, t.spec); rec != nil {
			t.add(t.spec.Count-rec.LossCount(), d, lastCPU)
		}
	}
	o.tr.end(phase)
	if trains[0].ops == 0 || trains[1].ops == 0 {
		return fmt.Errorf("live: no train was delivered")
	}

	// Phase 2: paced streams. 200 us gaps are pure spin pacing; 1 ms
	// gaps sleep, then spin.
	classes := []*gapClass{{name: "200us", intended: 200 * time.Microsecond, guarded: true}, {name: "1ms", intended: time.Millisecond}}
	specs := []probe.StreamSpec{
		probe.Periodic(8*unit.Mbps, 200, 100),
		probe.Periodic(1600*unit.Kbps, 200, 100),
	}
	var overheadMs []float64
	for c, dur := range []float64{paced200For, paced1msFor} {
		g := classes[c]
		if got := unit.GapFor(specs[c].PktSize, specs[c].Rate); got != g.intended {
			return fmt.Errorf("live: paced spec has gap %v, want %v", got, g.intended)
		}
		phase := o.tr.begin("phase.paced."+g.name, root, 0)
		for start := time.Now(); time.Since(start).Seconds() < dur; {
			if rec, d, ok := probeOnce(phase, "paced."+g.name, specs[c]); ok {
				g.add(rec)
				overheadMs = append(overheadMs, ms(d-(rec.Sent[len(rec.Sent)-1]-rec.Sent[0])))
			}
		}
		o.tr.end(phase)
	}
	o.tr.end(root)

	// The guard works stream by stream (gapClass.add), so a noisy moment
	// costs a few streams' gaps, not the run. If fewer than a quarter of
	// the streams are left there is nothing to judge the receiver by:
	// the paced phase's operations are failed instead of printing a gap
	// number.
	g200, g1ms := classes[0], classes[1]
	if 4*(g200.streams-g200.invalid) < g200.streams {
		res.fail(g200.streams+g1ms.streams, "live: the sender missed the %v gap on %d of %d streams: box too noisy, paced phase invalid",
			g200.intended, g200.invalid, g200.streams)
	}

	st := rc.Stats()
	if got, want := int(st.Packets-st0.Packets), sent-lost; got != want {
		res.fail(1, "live: receiver stamped %d packets, sender accounts for %d sent - %d lost", got, sent, lost)
	}
	if len(overheadMs) == 0 {
		return fmt.Errorf("live: no paced stream completed")
	}

	trains[0].report(res, "64 B trains")
	res.latency(overheadMs)
	res.note("live: %d packets sent, %d lost, %d streams; train phase %.1f s, paced %.1f s + %.1f s",
		sent, lost, op, trainFor, paced200For, paced1msFor)

	res.layer["livenet.gap_within_5pct"] = g200.within()
	res.layer["livenet.gap_within_5pct_1ms"] = g1ms.within()
	res.layer["livenet.gap_err_p50_us"] = percentile(g200.recvErrUs, 0.50)
	res.layer["livenet.gap_err_p90_us"] = percentile(g200.recvErrUs, 0.90)
	res.layer["livenet.gap_err_p99_us"] = percentile(g200.recvErrUs, 0.99)
	res.layer["livenet.gap_err_mean_us"] = mean(g200.recvErrUs)
	res.layer["livenet.send_gap_err_p90_us"] = percentile(g200.sendErrUs, 0.90)
	res.layer["livenet.invalid_streams"] = float64(g200.invalid)
	res.layer["livenet.send_gap_err_p90_us_1ms"] = percentile(g1ms.sendErrUs, 0.90)
	res.layer["livenet.pkts_per_s_1472B"] = median(trains[1].rate)
	res.layer["livenet.drops"] = float64(st.Drops - st0.Drops)
	res.layer["livenet.lost"] = float64(lost)
	res.layer["livenet.batches"] = float64(st.Batches - st0.Batches)
	res.note("live: gap_within_5pct %.4f over %d gaps of 200 us (%d of %d streams invalid: sender off its gap), %.4f over %d gaps of 1 ms",
		g200.within(), g200.gaps, g200.invalid, g200.streams, g1ms.within(), g1ms.gaps)
	return nil
}
