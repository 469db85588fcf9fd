package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a fresh process and parses its last line.
func child(o opts, seed uint64, traced bool) (runLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return runLine{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.out)
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return runLine{}, fmt.Errorf("child run (seed %d): %w", seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rl runLine
	if err := json.Unmarshal(last, &rl); err != nil {
		return rl, fmt.Errorf("child run (seed %d): last line is not a result: %w", seed, err)
	}
	return rl, nil
}

// runRepeat is the noise-floor instrument: n fresh processes on seeds
// seed, seed+1, ..., then median, quartiles and the relative IQR of
// every end-to-end metric, flagged where the IQR exceeds the metric's
// own bound. With paired set, every untraced run is followed by a
// traced run of the same seed and the throughput difference between
// the two sets is printed as the tracing overhead.
func runRepeat(o opts, n int, paired bool) error {
	samples := map[string][]float64{}
	var tracedThroughput []float64
	failed := 0
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)
		rl, err := child(o, seed, false)
		if err != nil {
			return err
		}
		failed += rl.Failed
		fmt.Printf("run %2d seed %d: correct %v, %d/%d failed", i+1, seed, rl.Correct, rl.Failed, rl.Attempted)
		for _, m := range endToEnd {
			v := rl.Metrics[m.Name].Value
			samples[m.Name] = append(samples[m.Name], v)
			fmt.Printf("  %s %.6g", m.Name, v)
		}
		fmt.Println()
		if paired {
			// The traced run prints per-layer metrics only, so its
			// throughput comes from the work it reports having timed.
			tl, err := child(o, seed, true)
			if err != nil {
				return err
			}
			failed += tl.Failed
			tracedThroughput = append(tracedThroughput, tl.Metrics["trace.throughput"].Value)
		}
	}
	fmt.Printf("\n%s: %d runs, seeds %d..%d, %d failed operations\n", o.workload, n, o.seed, o.seed+uint64(n)-1, failed)
	fmt.Printf("  %-16s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "rel IQR", "bound")
	flagged := 0
	for _, m := range endToEnd {
		q := quartiles(samples[m.Name])
		spread := relIQR(samples[m.Name])
		mark := ""
		if spread > m.Bound {
			mark = "  <-- IQR exceeds the bound"
			if m.Name == "setup_s" {
				mark += " (the acceptance exempts setup_s from the spread rule)"
			} else {
				flagged++
			}
		}
		fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%%s\n", m.Name, q[0], q[1], q[2], 100*spread, 100*m.Bound, mark)
	}
	if paired {
		u, t := median(samples["throughput"]), median(tracedThroughput)
		fmt.Printf("  trace_overhead_pct %.2f (median throughput %.6g untraced, %.6g traced)\n", 100*(u-t)/u, u, t)
	}
	if flagged > 0 || failed > 0 {
		return fmt.Errorf("%d metric(s) flagged, %d failed operations", flagged, failed)
	}
	return nil
}
