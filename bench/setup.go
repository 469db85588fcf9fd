package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"abw/internal/core"
	"abw/internal/eventq"
	"abw/internal/livenet"
	"abw/internal/livenet/ingest"
	"abw/internal/monitor"
	"abw/internal/probe"
	"abw/internal/scenario"
	"abw/internal/tools/learned"
	"abw/internal/unit"
)

const (
	rcvBuf = 4 << 20
	sndBuf = 4 << 20
)

// setupTimes is one set-up, split by layer.
type setupTimes struct {
	total, weights, compileAll, dial time.Duration
	compile                          map[string]time.Duration
}

// setupOnce does what a process must do before its first operation:
// parse the learned weights, compile every catalog scenario once, and
// bring up a receiver with one dialed session. It is repeatable, so a
// run can report the median of several.
func setupOnce(root string, seed uint64) (setupTimes, error) {
	st := setupTimes{compile: map[string]time.Duration{}}
	start := time.Now()

	data, err := os.ReadFile(filepath.Join(root, "internal", "tools", "learned", "weights.json"))
	if err != nil {
		return st, err
	}
	if _, err := learned.Parse(data); err != nil {
		return st, err
	}
	st.weights = time.Since(start)

	t0 := time.Now()
	for _, d := range scenario.Catalog() {
		t1 := time.Now()
		if _, err := d.CompileSeeded(seed); err != nil {
			return st, fmt.Errorf("compile %s: %w", d.Name, err)
		}
		st.compile[d.Name] = time.Since(t1)
	}
	st.compileAll = time.Since(t0)

	t0 = time.Now()
	rc, tr, err := listenAndDial()
	if err != nil {
		return st, err
	}
	st.dial = time.Since(t0)
	tr.Close()
	rc.Close()

	st.total = time.Since(start)
	return st, nil
}

func listenAndDial() (*livenet.Receiver, *livenet.Transport, error) {
	rc, err := livenet.ListenReceiverConfig("127.0.0.1:0", livenet.Config{RcvBuf: rcvBuf})
	if err != nil {
		return nil, nil, err
	}
	tr, err := livenet.DialOpts(rc.Addr(), livenet.Opts{SndBuf: sndBuf})
	if err != nil {
		rc.Close()
		return nil, nil, err
	}
	return rc, tr, nil
}

// runSetup repeats the set-up and records its median as setup_s, with
// the per-layer split beside it.
func runSetup(o opts, res *result) error {
	reps := 25
	if o.short {
		reps = 1
	}
	var total, weights, compileAll, dial []float64
	compile := map[string][]float64{}
	for i := 0; i < reps; i++ {
		st, err := setupOnce(o.root, o.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total = append(total, st.total.Seconds())
		weights = append(weights, ms(st.weights))
		compileAll = append(compileAll, ms(st.compileAll))
		dial = append(dial, ms(st.dial))
		for _, s := range benchScenarios {
			compile[s] = append(compile[s], ms(st.compile[s]))
		}
	}
	res.e2e["setup_s"] = median(total)
	res.layer["setup.first_s"] = total[0]
	res.layer["learned.weights_load_ms"] = median(weights)
	res.layer["scenario.compile_all_ms"] = median(compileAll)
	res.layer["livenet.dial_ms"] = median(dial)
	for _, s := range benchScenarios {
		res.layer["scenario.compile_ms."+s] = median(compile[s])
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerProbes measures single layers through their public functions,
// outside any workload, so a traced run of any workload can say which
// rung moved. Each probe reports the median of five batches.
func layerProbes(o opts, res *result) error {
	scale := 1
	if o.short {
		scale = 20
	}
	batches := func(n int, one func(n int) time.Duration) float64 {
		var per []float64
		for b := 0; b < 5; b++ {
			per = append(per, float64(one(n))/float64(n))
		}
		return median(per)
	}

	// eventq: steady depth 1024, the shape of the simulator's core loop.
	rnd := rand.New(rand.NewSource(int64(o.seed)))
	var q eventq.Queue
	for i := 0; i < 1024; i++ {
		q.Schedule(time.Duration(rnd.Intn(1<<20)), nil)
	}
	res.layer["eventq.ns_per_op"] = batches(400_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			e := q.Pop()
			at := e.At
			q.Release(e)
			q.Schedule(at+time.Duration(rnd.Intn(1<<20)), nil)
		}
		return time.Since(start)
	})
	front := q.Peek().At
	res.layer["eventq.cancel_ns"] = batches(400_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			q.Cancel(q.Schedule(front+time.Duration(rnd.Intn(1<<20)), nil))
		}
		return time.Since(start)
	})

	// probe features and the learned model, on one recorded stream.
	d, _ := scenario.Lookup("canonical")
	cpl, err := d.CompileSeeded(o.seed)
	if err != nil {
		return err
	}
	rec, err := cpl.Transport.Probe(probe.Periodic(40*unit.Mbps, 1000, 120))
	if err != nil {
		return err
	}
	var fv probe.FeatureVector
	res.layer["probe.features_ns"] = batches(20_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			fv = probe.ExtractFeatures(rec)
		}
		return time.Since(start)
	})
	w, err := learned.Default()
	if err != nil {
		return err
	}
	x := learned.ModelInput(fv, 0.8, cpl.Capacity.MbpsOf())
	var perr error
	res.layer["learned.predict_us"] = batches(200/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := w.Predict(x); err != nil {
				perr = err
			}
		}
		return time.Since(start)
	}) / 1e3
	if perr != nil {
		return perr
	}

	// ingest: a pre-filled socket drained through ReadBatch; the writer
	// runs between the timed drains.
	for _, mode := range []struct {
		name  string
		force bool
	}{{"batched", false}, {"fallback", true}} {
		ns, perBatch, kernel, granted, err := drainProbe(mode.force, 100_000/scale)
		if err != nil {
			return fmt.Errorf("ingest probe (%s): %w", mode.name, err)
		}
		res.layer["ingest.ns_per_pkt."+mode.name] = ns
		if !mode.force {
			res.layer["ingest.pkts_per_batch"] = perBatch
			res.layer["ingest.kernel_ts"] = b2f(kernel)
			res.layer["ingest.rcvbuf_bytes"] = float64(granted)
		}
	}

	// monitor: the three per-run steps around an estimate.
	clk := monitor.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	led := monitor.NewLedger(core.Budget{}, 0, time.Second, clk)
	cost := monitor.Cost{Streams: 1, Packets: 2, Bytes: 3000}
	res.layer["monitor.admit_commit_ns"] = batches(100_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			id, err := led.Admit("tenant-0", cost)
			if err != nil {
				perr = err
			}
			led.Commit(id, cost)
		}
		d := time.Since(start)
		clk.Advance(2 * time.Second) // let the rate window expire its charges
		return d
	})
	if perr != nil {
		return perr
	}
	store := monitor.NewStore(64)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("edge-%03d", i)
	}
	pt := monitor.Point{At: clk.Now(), Point: 40 * unit.Mbps, Low: 35 * unit.Mbps, High: 45 * unit.Mbps,
		Streams: 1, Packets: 2, ProbeBytes: 3000, Elapsed: 12 * time.Millisecond}
	res.layer["monitor.store_append_ns"] = batches(200_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			store.Append(keys[i%len(keys)], "spruce", "tenant-0", pt)
		}
		return time.Since(start)
	})
	series := store.All()[0]
	res.layer["monitor.rollup_us"] = batches(20_000/scale, func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			series.Rollup()
		}
		return time.Since(start)
	}) / 1e3
	return nil
}

// drainProbe times ReadBatch alone: chunks of 64-byte datagrams are
// written into a loopback socket's queue, then drained with the clock
// running. The chunk is sized so the granted receive buffer holds it.
func drainProbe(forceFallback bool, total int) (nsPerPkt, pktsPerBatch float64, kernel bool, granted int, err error) {
	rc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, false, 0, err
	}
	defer rc.Close()
	rc.SetReadBuffer(rcvBuf) // best effort; granted says what the kernel gave
	granted = ingest.EffectiveRcvBuf(rc)
	sc, err := net.DialUDP("udp", nil, rc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, false, granted, err
	}
	defer sc.Close()
	r := ingest.NewReader(rc, ingest.Config{ForceFallback: forceFallback, Slot: 2048})
	w := ingest.NewWriter(sc)
	chunk := granted / 4096 // the kernel charges far more than 64 B per small datagram
	if chunk < 16 {
		chunk = 16
	}
	if chunk > 2048 {
		chunk = 2048
	}
	bufs := make([][]byte, chunk)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	batch := make([]ingest.Datagram, r.BatchSize())
	var busy time.Duration
	calls := 0
	for done := 0; done < total; done += chunk {
		if err := w.WriteBatch(bufs); err != nil {
			return 0, 0, false, granted, err
		}
		rc.SetReadDeadline(time.Now().Add(2 * time.Second)) // a dropped datagram must not hang the drain
		start := time.Now()
		for got := 0; got < chunk; {
			k, err := r.ReadBatch(batch)
			if err != nil {
				return 0, 0, false, granted, fmt.Errorf("drained %d of %d: %w", got, chunk, err)
			}
			got += k
			calls++
		}
		busy += time.Since(start)
	}
	n := float64((total + chunk - 1) / chunk * chunk)
	return float64(busy) / n, n / float64(calls), r.Kernel(), granted, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
