package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// mustBeRecorded fails the test unless cpl has exactly one recorder per
// hop, attached to that hop's link: a test that reads recorder rows
// must not pass vacuously on an unrecorded compile.
func mustBeRecorded(t testing.TB, cpl *Compiled) *Compiled {
	t.Helper()
	if len(cpl.Recorders) != len(cpl.Path.Links) {
		t.Fatalf("%d recorders for %d hops", len(cpl.Recorders), len(cpl.Path.Links))
	}
	for h, l := range cpl.Path.Links {
		if l.Recorder() == nil || l.Recorder() != cpl.Recorders[h] {
			t.Fatalf("hop %d: link recorder is not Recorders[%d]", h, h)
		}
	}
	return cpl
}

// TestCBRGroundTruth is the recorder-vs-analytic property the ground
// truth rests on: under CBR cross traffic the measured avail-bw
// A(t, t+τ) must match C − R at every averaging timescale, up to the
// packet-quantization of the busy periods.
func TestCBRGroundTruth(t *testing.T) {
	cpl, err := Compile(Spec{
		Horizon:  12 * time.Second,
		Recorded: true,
		Hops: []Hop{{
			Capacity: 50 * unit.Mbps,
			Traffic:  []Source{{Kind: CBR, Rate: 25 * unit.Mbps}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustBeRecorded(t, cpl)
	cpl.Sim.RunUntil(10 * time.Second)
	want := 25.0
	for _, tau := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		for _, from := range []time.Duration{time.Second, 3 * time.Second, 7 * time.Second} {
			got := cpl.AvailBw(0, from, tau).MbpsOf()
			if got < want*0.95 || got > want*1.05 {
				t.Errorf("AvailBw(τ=%v, t=%v) = %.2f Mbps, want %.1f ± 5%%", tau, from, got, want)
			}
		}
	}
	if cpl.TrueAvailBw != 25*unit.Mbps {
		t.Errorf("TrueAvailBw = %v, want 25 Mbps", cpl.TrueAvailBw)
	}
}

// TestTightVsNarrow asserts the catalog's two-hop scenario separates
// the tight link from the narrow link, in the analytic truth and in the
// per-hop measurements.
func TestTightVsNarrow(t *testing.T) {
	d, ok := Lookup("narrowtight")
	if !ok {
		t.Fatal("narrowtight scenario missing from the catalog")
	}
	d.Spec.Recorded = true
	cpl, err := d.CompileSeeded(1)
	if err != nil {
		t.Fatal(err)
	}
	mustBeRecorded(t, cpl)
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

	cpl.Sim.RunUntil(6 * time.Second)
	window := 4 * time.Second
	a0 := cpl.AvailBw(0, time.Second, window).MbpsOf()
	a1 := cpl.AvailBw(1, time.Second, window).MbpsOf()
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
		cpl := mustBeRecorded(t, MustCompile(Spec{
			Horizon:  2 * time.Second,
			Seed:     seed,
			Recorded: true,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		}))
		cpl.Sim.RunUntil(2 * time.Second)
		arr := cpl.Recorders[0].Arrivals()
		out := make([]time.Duration, 0, 16)
		for i := 0; i < len(arr) && i < 16; i++ {
			out = append(out, arr[i].At)
		}
		return out
	}
	zeroA, zeroB := build(Seed(0)), build(Seed(0))
	one, def := build(Seed(1)), build(nil)
	if len(zeroA) == 0 {
		t.Fatal("seed-0 scenario generated no traffic")
	}
	eq := func(a, b []time.Duration) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !eq(zeroA, zeroB) {
		t.Error("seed 0 is not reproducible")
	}
	if eq(zeroA, one) {
		t.Error("seed 0 and seed 1 produced identical traffic; 0 is being coerced")
	}
	if !eq(one, def) {
		t.Error("nil seed should default to seed 1")
	}
}

// TestStepProfile asserts a stepped source changes the measured
// avail-bw at the step instant: the time-varying ground truth the
// step-change scenario is built on.
func TestStepProfile(t *testing.T) {
	cpl, err := Compile(Spec{
		Horizon:  4 * time.Second,
		Recorded: true,
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
	mustBeRecorded(t, cpl)
	cpl.Sim.RunUntil(4 * time.Second)
	early := cpl.AvailBw(0, 500*time.Millisecond, time.Second).MbpsOf()
	late := cpl.AvailBw(0, 2500*time.Millisecond, time.Second).MbpsOf()
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

// TestMeasuredAvailBwPanicsDescriptively: a hop outside the path, or a
// compilation without recorders, is reported by name from this package
// instead of as a bare index or nil-pointer fault.
func TestMeasuredAvailBwPanicsDescriptively(t *testing.T) {
	spec := Spec{Hops: []Hop{{Capacity: 50 * unit.Mbps}, {Capacity: 20 * unit.Mbps}}}
	bare := MustCompile(spec)
	spec.Recorded = true
	recorded := mustBeRecorded(t, MustCompile(spec))
	cases := []struct {
		name string
		cpl  *Compiled
		hop  int
		want string // substring of the panic; "" = no panic
	}{
		{"first hop", recorded, 0, ""},
		{"last hop", recorded, 1, ""},
		{"negative hop", recorded, -1, "hop -1 out of range [0, 2)"},
		{"hop past the path", recorded, 2, "hop 2 out of range [0, 2)"},
		{"unrecorded", bare, 0, "compiled without recorders"},
	}
	calls := map[string]func(c *Compiled, hop int){
		"AvailBw":       func(c *Compiled, hop int) { c.AvailBw(hop, 0, time.Second) },
		"AvailBwSeries": func(c *Compiled, hop int) { c.AvailBwSeries(hop, 0, time.Second, 100*time.Millisecond) },
	}
	for _, tc := range cases {
		for method, call := range calls {
			err := capturePanic(func() { call(tc.cpl, tc.hop) })
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: %s panicked: %v", tc.name, method, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s: %s panic = %v, want one containing %q", tc.name, method, err, tc.want)
			}
		}
	}
}
