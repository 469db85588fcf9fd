package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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
	lost      []int64
	now       time.Duration
	folded    uint64
	batched   uint64
}

// runEstimate runs one estimate with feeds forced onto the event path
// (eagerFeeds), probe streams forced onto it (eagerProbes), both, or
// neither.
func runEstimate(t *testing.T, d scenario.Descriptor, tool string, seed uint64, eagerFeeds, eagerProbes bool) estimateRun {
	defer sim.SetEagerFeeds(sim.SetEagerFeeds(eagerFeeds))
	defer sim.SetEagerProbes(sim.SetEagerProbes(eagerProbes))
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
		run.lost = append(run.lost, l.Lost())
	}
	run.now = cpl.Sim.Now()
	run.folded, run.batched = cpl.Sim.Stats().Folded, cpl.Sim.Stats().Batched
	return run
}

// TestEstimatesFoldIdentically is the end-to-end differential of
// folding and batching: every catalog entry, every registered tool,
// seeds 1–3, each run as compiled (feeds fold,
// streams batch where they can), with every probe stream forced onto
// the event path, and with every feed forced onto it too (which keeps
// any link from folding, so no stream batches). Reports, per-packet
// stream records, every link's forwarded packets and bytes and lost
// packets, and the final clock must be equal, and the catalog as a
// whole must fold and batch.
func TestEstimatesFoldIdentically(t *testing.T) {
	var folded, batched uint64
	for _, d := range scenario.Catalog() {
		for _, td := range registry.Tools() {
			for seed := uint64(1); seed <= 3; seed++ {
				got := runEstimate(t, d, td.Name, seed, false, false)
				folded, batched = folded+got.folded, batched+got.batched
				for _, oracle := range []struct {
					name                    string
					eagerFeeds, eagerProbes bool
				}{{"event-path probes", false, true}, {"eager", true, true}} {
					name := fmt.Sprintf("%s/%s/seed%d against %s", d.Name, td.Name, seed, oracle.name)
					want := runEstimate(t, d, td.Name, seed, oracle.eagerFeeds, oracle.eagerProbes)
					if want.batched != 0 || oracle.eagerFeeds && want.folded != 0 {
						t.Fatalf("%s: the oracle folded %d and batched %d packets", name, want.folded, want.batched)
					}
					switch {
					case got.err != want.err:
						t.Errorf("%s: error %q, oracle %q", name, got.err, want.err)
					case !reflect.DeepEqual(got.report, want.report):
						t.Errorf("%s: report\n %+v\noracle\n %+v", name, got.report, want.report)
					case !reflect.DeepEqual(got.records, want.records):
						t.Errorf("%s: stream records differ from the oracle's", name)
					case !reflect.DeepEqual(got.forwarded, want.forwarded) || !reflect.DeepEqual(got.served, want.served) || !reflect.DeepEqual(got.lost, want.lost):
						t.Errorf("%s: links forwarded %v packets / %v bytes and lost %v, oracle %v / %v and %v", name, got.forwarded, got.served, got.lost, want.forwarded, want.served, want.lost)
					case got.now != want.now:
						t.Errorf("%s: clock ends at %v, oracle %v", name, got.now, want.now)
					}
				}
			}
		}
	}
	if folded == 0 || batched == 0 {
		t.Errorf("the estimates folded %d and batched %d packets, want both", folded, batched)
	}
}

// outlived is what a stream that outlives MaxWait shows: its record
// when Probe returns, the same record and the next stream's after the
// next Probe, and the clock and every link's counters at both returns.
type outlived struct {
	first, firstLater, second probe.Record
	done                      bool
	now                       [2]time.Duration
	links                     [2][]linkState
	batched                   uint64
}

// linkState is what one link's counters show at one instant.
type linkState struct {
	Forwarded, Dropped, Lost int64
	Served, Queued           unit.Bytes
	QueueLen                 int
}

func stateOf(l *sim.Link) linkState {
	return linkState{l.Forwarded(), l.Dropped(), l.Lost(), l.BytesServed(), l.QueuedBytes(), l.QueueLen()}
}

func outlive(t *testing.T, hops int, eagerProbes bool) outlived {
	defer sim.SetEagerProbes(sim.SetEagerProbes(eagerProbes))
	cpl, err := scenario.Compile(scenario.Spec{
		Seed:    scenario.Seed(7),
		Horizon: 10 * time.Second,
		Hops: []scenario.Hop{
			{Capacity: 10 * unit.Mbps, Traffic: []scenario.Source{{Kind: scenario.Poisson, Rate: 8 * unit.Mbps}}},
			{Capacity: 100 * unit.Mbps, Loss: scenario.Loss{Kind: scenario.LossBernoulli, Rate: 0.05},
				Traffic: []scenario.Source{{Kind: scenario.CBR, Rate: 30 * unit.Mbps}}},
		}[:hops],
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := cpl.Transport
	tr.MaxWait = time.Millisecond
	var out outlived
	snap := func(i int) {
		out.now[i] = cpl.Sim.Now()
		for _, l := range cpl.Path.Links {
			out.links[i] = append(out.links[i], stateOf(l))
		}
	}
	// 100 packets at twice the loaded hop's capacity queue for about
	// half a second, far past the stream's MaxWait.
	spec := probe.Periodic(20*unit.Mbps, 1500, 100)
	first, err := tr.Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	out.first, out.done, out.batched = *first, first.Done(), cpl.Sim.Stats().Batched
	out.first.Recv = slices.Clone(first.Recv)
	snap(0)
	second, err := tr.Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	out.firstLater, out.second = *first, *second
	snap(1)
	return out
}

// TestStreamOutlivesMaxWait: a stream still queued when Probe gives up
// on it (MaxWait) keeps resolving while the next stream runs. Batched,
// its record when Probe returns, the same record after the next Probe,
// the next stream's record (which takes the event path, since the
// first is still in flight), the clock and the links' counters must all
// be the event path's — on the loaded hop alone, where the batch has
// admitted the whole stream by the time Probe returns, and with a lossy
// hop after it.
func TestStreamOutlivesMaxWait(t *testing.T) {
	for hops := 1; hops <= 2; hops++ {
		got, want := outlive(t, hops, false), outlive(t, hops, true)
		if got.done || got.batched == 0 || want.batched != 0 {
			t.Fatalf("%d hops: the first stream is done %v at its return, %d batched hop forwards (event path %d); want a batched stream still in flight", hops, got.done, got.batched, want.batched)
		}
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"record at Probe's return", got.first, want.first},
			{"record after the next Probe", got.firstLater, want.firstLater},
			{"next stream's record", got.second, want.second},
			{"clock", got.now, want.now},
			{"link counters", got.links, want.links},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%d hops: %s:\n %+v\nevent path\n %+v", hops, c.name, c.got, c.want)
			}
		}
	}
}

// TestLRDFeedIsLazyOnTheEventPath is the event path's half of
// scenario's TestLRDCompileIsLazy: with feeds forced onto the event
// path, a compiled lrd scenario has exactly one event pending, its
// feed, before and after a run that crosses the first 30 s tile
// boundary (31 s falls between packets at seed 1, so no completion is
// pending), and its link forwards what the folded compile's does.
func TestLRDFeedIsLazyOnTheEventPath(t *testing.T) {
	d, ok := scenario.Lookup("lrd")
	if !ok {
		t.Fatal("lrd scenario missing")
	}
	const until = 31 * time.Second
	run := func(eager bool) (pending [2]int, forwarded int64) {
		defer sim.SetEagerFeeds(sim.SetEagerFeeds(eager))
		cpl, err := d.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		pending[0] = cpl.Sim.Pending()
		cpl.Sim.RunUntil(until)
		pending[1] = cpl.Sim.Pending()
		return pending, cpl.Path.Links[0].Forwarded()
	}
	pending, forwarded := run(true)
	if pending != [2]int{1, 1} {
		t.Errorf("%d / %d events pending after compile / crossing a tile boundary on the event path, want 1 (the feed)", pending[0], pending[1])
	}
	if forwarded < 150_000 {
		t.Fatalf("only %d packets forwarded in 31 s: the source did not run across the tile boundary", forwarded)
	}
	if _, folded := run(false); folded != forwarded {
		t.Errorf("the folded source forwarded %d packets in 31 s, the event path %d", folded, forwarded)
	}
}
