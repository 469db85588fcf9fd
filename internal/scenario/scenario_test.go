package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// servedAvailBw runs cpl to each boundary of the given windows in
// increasing order and returns, per hop and window, the avail-bw read
// from the hop's link counters: the window's capacity less the bits
// the link served in it, per second. Every hop's capacity must be
// fixed.
func servedAvailBw(cpl *Compiled, windows [][2]time.Duration) [][]unit.Rate {
	var at []time.Duration
	for _, w := range windows {
		at = append(at, w[0], w[0]+w[1])
	}
	slices.Sort(at)
	served := map[time.Duration][]unit.Bytes{}
	for _, t := range at {
		cpl.Sim.RunUntil(t)
		for _, l := range cpl.Path.Links {
			served[t] = append(served[t], l.BytesServed())
		}
	}
	out := make([][]unit.Rate, len(cpl.Path.Links))
	for h := range out {
		for _, w := range windows {
			bits := float64(served[w[0]+w[1]][h]-served[w[0]][h]) * 8
			out[h] = append(out[h], cpl.Spec.Hops[h].Capacity-unit.Rate(bits/w[1].Seconds()))
		}
	}
	return out
}

// TestCBRGroundTruth is the counters-vs-analytic property the ground
// truth rests on: under CBR cross traffic the avail-bw A(t, t+τ) read
// from the link's served bytes must match C − R at every averaging
// timescale, up to the packet-quantization of the busy periods, and the
// analytic window truth must be C − R exactly.
func TestCBRGroundTruth(t *testing.T) {
	cpl, err := Compile(Spec{
		Horizon: 12 * time.Second,
		Hops: []Hop{{
			Capacity: 50 * unit.Mbps,
			Traffic:  []Source{{Kind: CBR, Rate: 25 * unit.Mbps}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 25.0
	var windows [][2]time.Duration
	for _, tau := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		for _, from := range []time.Duration{time.Second, 3 * time.Second, 7 * time.Second} {
			windows = append(windows, [2]time.Duration{from, tau})
			if got := cpl.AvailBw(0, from, tau); got != 25*unit.Mbps {
				t.Errorf("analytic AvailBw(τ=%v, t=%v) = %v, want 25 Mbps", tau, from, got)
			}
		}
	}
	for i, a := range servedAvailBw(cpl, windows)[0] {
		if got := a.MbpsOf(); got < want*0.95 || got > want*1.05 {
			t.Errorf("served AvailBw(τ=%v, t=%v) = %.2f Mbps, want %.1f ± 5%%", windows[i][1], windows[i][0], got, want)
		}
	}
	if cpl.TrueAvailBw != 25*unit.Mbps {
		t.Errorf("TrueAvailBw = %v, want 25 Mbps", cpl.TrueAvailBw)
	}
}

// TestTightVsNarrow asserts the catalog's two-hop scenario separates
// the tight link from the narrow link, in the analytic truth and in the
// per-hop counters.
func TestTightVsNarrow(t *testing.T) {
	d, ok := Lookup("narrowtight")
	if !ok {
		t.Fatal("narrowtight scenario missing from the catalog")
	}
	cpl, err := d.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	if cpl.TightLink == cpl.NarrowLink {
		t.Fatalf("TightLink = NarrowLink = %d; the scenario exists to separate them", cpl.TightLink)
	}
	if cpl.TightLink != 0 || cpl.NarrowLink != 1 {
		t.Fatalf("TightLink, NarrowLink = %d, %d; want 0, 1", cpl.TightLink, cpl.NarrowLink)
	}
	if cpl.Capacity != unit.FastEthernet {
		t.Errorf("tight-link capacity = %v, want %v", cpl.Capacity, unit.FastEthernet)
	}
	if cpl.TrueAvailBw != 20*unit.Mbps {
		t.Errorf("TrueAvailBw = %v, want 20 Mbps", cpl.TrueAvailBw)
	}

	served := servedAvailBw(cpl, [][2]time.Duration{{time.Second, 4 * time.Second}})
	a0, a1 := served[0][0].MbpsOf(), served[1][0].MbpsOf()
	if w0, w1 := cpl.AvailBw(0, time.Second, 4*time.Second), cpl.AvailBw(1, time.Second, 4*time.Second); w0 != 20*unit.Mbps || w1 != 40*unit.Mbps {
		t.Errorf("analytic hop-0 / hop-1 avail-bw %v / %v, want 20 / 40 Mbps", w0, w1)
	}
	if a0 < 20*0.85 || a0 > 20*1.15 {
		t.Errorf("measured hop-0 avail-bw %.2f Mbps, want 20 ± 15%%", a0)
	}
	if a1 < 40*0.85 || a1 > 40*1.15 {
		t.Errorf("measured hop-1 avail-bw %.2f Mbps, want 40 ± 15%%", a1)
	}
	if c := cpl.Path.Links[cpl.NarrowLink].Capacity; c >= cpl.Path.Links[cpl.TightLink].Capacity {
		t.Errorf("narrow link %s runs at %v, not below the tight link's capacity", cpl.Path.Links[cpl.NarrowLink].Name, c)
	}
}

// TestSeedZero asserts seed 0 is a real seed: explicit Seed(0) gives a
// different (but reproducible) realization than Seed(1), and a nil
// seed still defaults to 1.
func TestSeedZero(t *testing.T) {
	build := func(seed *uint64) []time.Duration {
		cpl := MustCompile(Spec{
			Horizon: 2 * time.Second,
			Seed:    seed,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		})
		offered, err := cpl.Offered(0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkts := offered.Packets()
		out := make([]time.Duration, 0, 16)
		for i := 0; i < len(pkts) && i < 16; i++ {
			out = append(out, pkts[i].At)
		}
		return out
	}
	zeroA, zeroB := build(Seed(0)), build(Seed(0))
	one, def := build(Seed(1)), build(nil)
	if len(zeroA) == 0 {
		t.Fatal("seed-0 scenario generated no traffic")
	}
	if !slices.Equal(zeroA, zeroB) {
		t.Error("seed 0 is not reproducible")
	}
	if slices.Equal(zeroA, one) {
		t.Error("seed 0 and seed 1 produced identical traffic; 0 is being coerced")
	}
	if !slices.Equal(one, def) {
		t.Error("nil seed should default to seed 1")
	}
}

// TestStepProfile asserts a stepped source changes the avail-bw at the
// step instant, in the analytic window truth and in the link's
// counters: the time-varying ground truth the step-change scenario is
// built on.
func TestStepProfile(t *testing.T) {
	cpl, err := Compile(Spec{
		Horizon: 4 * time.Second,
		Hops: []Hop{{
			Capacity: 50 * unit.Mbps,
			Traffic: []Source{{
				Kind:  CBR,
				Steps: []RateStep{{At: 0, Rate: 10 * unit.Mbps}, {At: 2 * time.Second, Rate: 35 * unit.Mbps}},
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic long-run truth is the time-weighted mean: C − (10+35)/2.
	if got := cpl.TrueAvailBw.MbpsOf(); got < 27 || got > 28 {
		t.Errorf("TrueAvailBw = %.2f Mbps, want 27.5", got)
	}
	windows := [][2]time.Duration{{500 * time.Millisecond, time.Second}, {2500 * time.Millisecond, time.Second}}
	if early, late := cpl.AvailBw(0, windows[0][0], windows[0][1]), cpl.AvailBw(0, windows[1][0], windows[1][1]); early != 40*unit.Mbps || late != 15*unit.Mbps {
		t.Errorf("analytic pre/post-step avail-bw %v / %v, want 40 / 15 Mbps", early, late)
	}
	served := servedAvailBw(cpl, windows)[0]
	early, late := served[0].MbpsOf(), served[1].MbpsOf()
	if early < 38 || early > 42 {
		t.Errorf("pre-step avail-bw %.2f Mbps, want ~40", early)
	}
	if late < 13 || late > 17 {
		t.Errorf("post-step avail-bw %.2f Mbps, want ~15", late)
	}
}

// TestCatalog asserts the catalog covers the conditions the issue and
// the paper call for: at least eight scenarios spanning every source
// kind, a heterogeneous multi-hop path, and a time-varying profile.
func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) < 25 {
		t.Fatalf("catalog has %d scenarios, want >= 25", len(cat))
	}
	for _, want := range []string{
		"canonical", "bursty", "lrd", "mice",
		"narrowtight", "multibottleneck", "step", "postnarrow",
		"red", "codel", "lossy", "burstloss", "reorder",
		"fading", "longpath", "verylongpath", "internet",
		"random-a", "random-b", "random-c",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("catalog is missing %q", want)
		}
	}

	// Global name/alias uniqueness: every lookup key resolves to
	// exactly one descriptor.
	seen := map[string]string{}
	for _, d := range cat {
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			if prev, dup := seen[name]; dup {
				t.Errorf("name %q registered by both %q and %q", name, prev, d.Name)
			}
			seen[name] = d.Name
		}
	}

	kinds := map[Kind]bool{}
	multiHop, stepped, deepPath := false, false, false
	aqm, lossy, reordered, fading := false, false, false, false
	for _, d := range cat {
		if len(d.Spec.Hops) > 1 {
			multiHop = true
		}
		if len(d.Spec.Hops) >= 10 {
			deepPath = true
		}
		for _, hop := range d.Spec.Hops {
			if hop.Queue.Kind != QueueFIFO {
				aqm = true
			}
			if hop.Loss.Kind != LossNone {
				lossy = true
			}
			if hop.Reorder.Jitter > 0 {
				reordered = true
			}
			if len(hop.CapacitySteps) > 0 {
				fading = true
			}
			for _, src := range hop.Traffic {
				kinds[src.Kind] = true
				if len(src.Steps) > 0 {
					stepped = true
				}
			}
		}
		if d.Summary == "" {
			t.Errorf("%s: empty summary", d.Name)
		}
		// Every entry compiles at two seeds, with a physical ground
		// truth: 0 < TrueAvailBw <= tight-link capacity.
		for _, seed := range []uint64{1, 2} {
			cpl, err := d.CompileSeeded(seed)
			if err != nil {
				t.Errorf("%s seed %d: %v", d.Name, seed, err)
				continue
			}
			if cpl.TrueAvailBw <= 0 {
				t.Errorf("%s seed %d: non-positive ground truth %v", d.Name, seed, cpl.TrueAvailBw)
			}
			if cpl.TrueAvailBw > cpl.Capacity {
				t.Errorf("%s seed %d: ground truth %v exceeds tight capacity %v",
					d.Name, seed, cpl.TrueAvailBw, cpl.Capacity)
			}
		}
	}
	for _, k := range []Kind{CBR, Poisson, ParetoOnOff, LRD, Mice} {
		if !kinds[k] {
			t.Errorf("no catalog scenario uses %v traffic", k)
		}
	}
	for name, got := range map[string]bool{
		"heterogeneous multi-hop": multiHop,
		"time-varying load":       stepped,
		"10+ hop path":            deepPath,
		"AQM":                     aqm,
		"random loss":             lossy,
		"reordering":              reordered,
		"variable capacity":       fading,
	} {
		if !got {
			t.Errorf("no %s scenario in the catalog", name)
		}
	}
}

// TestRandomSpecDeterminism pins the RandomSpec contract: equal
// generator states yield bit-identical specs, and every drawn spec
// compiles with positive ground truth.
func TestRandomSpecDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := RandomSpec(rng.New(seed))
		b := RandomSpec(rng.New(seed))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: RandomSpec is not deterministic", seed)
		}
		if n := len(a.Hops); n < 1 || n > 16 {
			t.Fatalf("seed %d: %d hops outside [1, 16]", seed, n)
		}
		cpl, err := Compile(a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cpl.TrueAvailBw <= 0 || cpl.TrueAvailBw > cpl.Capacity {
			t.Fatalf("seed %d: ground truth %v outside (0, %v]", seed, cpl.TrueAvailBw, cpl.Capacity)
		}
	}
	// Different states should explore the feature space.
	differ := false
	base := RandomSpec(rng.New(1))
	for seed := uint64(2); seed <= 5 && !differ; seed++ {
		differ = !reflect.DeepEqual(base, RandomSpec(rng.New(seed)))
	}
	if !differ {
		t.Error("RandomSpec returned identical specs for different seeds")
	}
}

// TestSpecValidation covers the compile-time error paths.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no hops", Spec{}},
		{"zero capacity", Spec{Hops: []Hop{{Traffic: []Source{{Kind: CBR, Rate: unit.Mbps}}}}}},
		{"zero rate", Spec{Hops: []Hop{{Capacity: unit.Mbps, Traffic: []Source{{Kind: CBR}}}}}},
		{"steps on mice", Spec{Hops: []Hop{{Capacity: 50 * unit.Mbps, Traffic: []Source{{
			Kind: Mice, Rate: unit.Mbps, Steps: []RateStep{{At: 0, Rate: unit.Mbps}}}}}}}},
		{"late first step", Spec{Hops: []Hop{{Capacity: 50 * unit.Mbps, Traffic: []Source{{
			Kind: CBR, Steps: []RateStep{{At: time.Second, Rate: unit.Mbps}}}}}}}},
		{"lrd above capacity", Spec{Hops: []Hop{{Capacity: unit.Mbps, Traffic: []Source{{
			Kind: LRD, Rate: 2 * unit.Mbps}}}}}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.spec); err == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
		}
	}
}

// TestMeasuredAvailBwPanicsDescriptively: a hop outside the path, a
// non-positive window or one outside the horizon is reported by name
// from this package instead of as a bare index fault or a silent
// extrapolation.
func TestMeasuredAvailBwPanicsDescriptively(t *testing.T) {
	cpl := MustCompile(Spec{Horizon: 10 * time.Second, Hops: []Hop{{Capacity: 50 * unit.Mbps}, {Capacity: 20 * unit.Mbps}}})
	cases := []struct {
		name         string
		hop          int
		from, window time.Duration
		want         string // substring of the panic; "" = no panic
	}{
		{"first hop", 0, 0, time.Second, ""},
		{"last hop", 1, 0, time.Second, ""},
		{"the whole horizon", 0, 0, 10 * time.Second, ""},
		{"negative hop", -1, 0, time.Second, "hop -1 out of range [0, 2)"},
		{"hop past the path", 2, 0, time.Second, "hop 2 out of range [0, 2)"},
		{"zero window", 0, 0, 0, "window 0s must be positive"},
		{"negative window", 0, time.Second, -time.Second, "window -1s must be positive"},
		{"past the horizon", 0, 9 * time.Second, 2 * time.Second, "window [9s, 11s) is outside the horizon [0, 10s)"},
		{"before the start", 0, -time.Second, 2 * time.Second, "window [-1s, 1s) is outside the horizon [0, 10s)"},
	}
	for _, tc := range cases {
		err := capturePanic(func() { cpl.AvailBw(tc.hop, tc.from, tc.window) })
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: AvailBw panicked: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: AvailBw panic = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOfferedMatchesLinkService: the packets Offered re-derives are the
// ones Compile fed. On every catalog hop whose link serves exactly what
// its sources offer — open-loop sources only, and no discipline, loss,
// buffer bound or capacity profile — Lindley's recursion over them
// (departure = max(arrival, previous departure) + L/C) departs as many
// packets and bytes by 2 s as the link forwarded. A hop with a
// closed-loop source is refused.
func TestOfferedMatchesLinkService(t *testing.T) {
	const until = 2 * time.Second
	checked := 0
	for _, d := range Catalog() {
		cpl, err := d.CompileSeeded(1)
		if err != nil {
			t.Fatal(err)
		}
		cpl.Sim.RunUntil(until)
		for h, hop := range cpl.Spec.Hops {
			offered, err := cpl.Offered(h, until)
			closed := slices.ContainsFunc(hop.Traffic, func(src Source) bool { return src.Kind == Mice || src.Kind == BufferLimitedTCP })
			if closed {
				if err == nil {
					t.Errorf("%s hop %d: Offered accepted a hop with a closed-loop source", d.Name, h)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s hop %d: %v", d.Name, h, err)
			}
			if hop.Queue.Kind != QueueFIFO || hop.Loss.Kind != LossNone || hop.Buffer > 0 || len(hop.CapacitySteps) > 0 {
				continue
			}
			var dep time.Duration
			var packets int64
			var bytes unit.Bytes
			for _, p := range offered.Packets() {
				dep = max(dep, p.At) + unit.TxTime(p.Size, hop.Capacity)
				if dep <= until {
					packets, bytes = packets+1, bytes+p.Size
				}
			}
			l := cpl.Path.Links[h]
			if l.Forwarded() != packets || l.BytesServed() != bytes {
				t.Errorf("%s hop %d: forwarded %d packets, %d bytes; Lindley over the offered packets %d, %d", d.Name, h, l.Forwarded(), l.BytesServed(), packets, bytes)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Errorf("only %d hops checked", checked)
	}
}
