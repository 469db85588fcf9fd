package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// recording is a Transport that keeps a copy of every stream record.
type recording struct {
	core.Transport
	records []probe.Record
}

func (r *recording) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	rec, err := r.Transport.Probe(spec)
	if rec != nil {
		r.records = append(r.records, *rec)
	}
	return rec, err
}

// estimateRun is what one estimate shows of the simulator.
type estimateRun struct {
	report    *core.Report
	err       string
	records   []probe.Record
	forwarded []int64
	served    []unit.Bytes
	now       time.Duration
	folded    uint64
}

func runEstimate(t *testing.T, d scenario.Descriptor, tool string, seed uint64, eager bool) estimateRun {
	defer sim.SetEagerFeeds(sim.SetEagerFeeds(eager))
	cpl, err := d.CompileSeeded(seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recording{Transport: cpl.Transport}
	var run estimateRun
	run.report, err = registry.Estimate(context.Background(), tool,
		registry.Params{Capacity: cpl.Capacity, Rand: rng.New(seed + 1)}, tr)
	if err != nil {
		run.err = err.Error()
	}
	run.records = tr.records
	links := cpl.Path.Links
	if cpl.Reverse != nil {
		links = append(links[:len(links):len(links)], cpl.Reverse)
	}
	for _, l := range links {
		run.forwarded = append(run.forwarded, l.Forwarded())
		run.served = append(run.served, l.BytesServed())
	}
	run.now = cpl.Sim.Now()
	run.folded = cpl.Sim.Stats().Folded
	return run
}

// TestEstimatesFoldIdentically is the end-to-end differential of
// folding: every catalog entry, every tool that probes through the
// Transport, seeds 1–3, each run once as compiled and once with every
// feed forced onto the event path. Reports, per-packet stream records,
// every link's forwarded packets and bytes and the final clock must be
// equal, and the catalog as a whole must fold.
func TestEstimatesFoldIdentically(t *testing.T) {
	var folded uint64
	for _, d := range scenario.Catalog() {
		for _, td := range registry.Tools() {
			if td.SimOnly {
				continue
			}
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", d.Name, td.Name, seed)
				got, want := runEstimate(t, d, td.Name, seed, false), runEstimate(t, d, td.Name, seed, true)
				if want.folded != 0 {
					t.Fatalf("%s: the eager oracle folded %d packets", name, want.folded)
				}
				folded += got.folded
				switch {
				case got.err != want.err:
					t.Errorf("%s: error %q, eager %q", name, got.err, want.err)
				case !reflect.DeepEqual(got.report, want.report):
					t.Errorf("%s: report\n %+v\neager\n %+v", name, got.report, want.report)
				case !reflect.DeepEqual(got.records, want.records):
					t.Errorf("%s: stream records differ from the eager run's", name)
				case !reflect.DeepEqual(got.forwarded, want.forwarded) || !reflect.DeepEqual(got.served, want.served):
					t.Errorf("%s: links forwarded %v packets / %v bytes, eager %v / %v", name, got.forwarded, got.served, want.forwarded, want.served)
				case got.now != want.now:
					t.Errorf("%s: clock ends at %v, eager %v", name, got.now, want.now)
				}
			}
		}
	}
	if folded == 0 {
		t.Error("no estimate folded a packet")
	}
}
