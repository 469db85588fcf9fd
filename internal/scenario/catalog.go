package scenario

import (
	"fmt"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// Descriptor names one cataloged scenario, mirroring the estimator
// registry: everything a caller needs to present the scenario and to
// compile it.
type Descriptor struct {
	// Name is the canonical scenario name ("canonical", "bursty", ...).
	Name string
	// Aliases are alternative lookup names.
	Aliases []string
	// Summary is a one-line description for CLI catalogs.
	Summary string
	// Spec is the declarative scenario; Compile realizes it.
	Spec Spec
}

// CompileSeeded realizes the cataloged spec under an explicit seed,
// leaving the registered Spec untouched.
func (d Descriptor) CompileSeeded(seed uint64) (*Compiled, error) {
	sp := d.Spec
	sp.Seed = Seed(seed)
	return Compile(sp)
}

// catalog holds the registered scenarios in registration order — the
// canonical presentation order used by CLIs and the matrix experiment.
var catalog []Descriptor

// Register adds a scenario to the catalog. It panics on a missing
// name/spec or a name/alias collision: registration happens at init
// time from this package only, so a collision is a programming error.
func Register(d Descriptor) {
	if d.Name == "" || len(d.Spec.Hops) == 0 {
		panic("scenario: descriptor needs a name and a non-empty spec")
	}
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		if _, ok := Lookup(name); ok {
			panic(fmt.Sprintf("scenario: duplicate scenario name %q", name))
		}
	}
	catalog = append(catalog, d)
}

// Catalog returns the registered scenarios in registration order.
func Catalog() []Descriptor {
	out := make([]Descriptor, len(catalog))
	copy(out, catalog)
	return out
}

// Names returns the canonical scenario names in registration order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, d := range catalog {
		names[i] = d.Name
	}
	return names
}

// Lookup finds a scenario by canonical name or alias.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range catalog {
		if d.Name == name {
			return d, true
		}
		for _, a := range d.Aliases {
			if a == name {
				return d, true
			}
		}
	}
	return Descriptor{}, false
}

// The catalog: every pitfall condition of the paper as a nameable
// scenario. All entries use a 10-minute horizon — the lazy source
// models cost nothing beyond the virtual time a run actually consumes
// — and the default seed unless compiled with CompileSeeded.
func init() {
	hop := func(capacity unit.Rate, srcs ...Source) Hop {
		return Hop{Capacity: capacity, Traffic: srcs}
	}
	long := 10 * time.Minute

	Register(Descriptor{
		Name:    "canonical",
		Aliases: []string{"default", "single-hop"},
		Summary: "the paper's canonical setting: 50 Mbps tight link, 25 Mbps CBR cross traffic",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(50*unit.Mbps, Source{Kind: CBR, Rate: 25 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "poisson",
		Summary: "canonical path with Poisson cross traffic at the same 25 Mbps mean",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(50*unit.Mbps, Source{Kind: Poisson, Rate: 25 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "bursty",
		Aliases: []string{"pareto"},
		Summary: "Pareto ON-OFF cross traffic: equal mean, maximal burstiness (Figure 3's worst case)",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(50*unit.Mbps, Source{Kind: ParetoOnOff, Rate: 25 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "lrd",
		Aliases: []string{"selfsimilar"},
		Summary: "long-range-dependent cross traffic (fGn-modulated, H=0.8): burstiness at every timescale",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(50*unit.Mbps, Source{Kind: LRD, Rate: 25 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "mice",
		Aliases: []string{"tcp-mice", "web"},
		Summary: "congestion-responsive cross traffic: short TCP transfers at 25 Mbps offered load",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(50*unit.Mbps, Source{Kind: Mice, Rate: 25 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "narrowtight",
		Aliases: []string{"narrow-vs-tight"},
		Summary: "tight link is not the narrow link: loaded 100 Mbps hop (A=20) before an idle-ish 50 Mbps hop (A=40)",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(unit.FastEthernet, Source{Kind: Poisson, Rate: 80 * unit.Mbps}),
				hop(50*unit.Mbps, Source{Kind: Poisson, Rate: 10 * unit.Mbps}),
			},
		},
	})
	Register(Descriptor{
		Name:    "multibottleneck",
		Aliases: []string{"hetero"},
		Summary: "three heterogeneous near-tight hops (A = 26/25/26 Mbps): Figure 4's compounding underestimation",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(60*unit.Mbps, Source{Kind: Poisson, Rate: 34 * unit.Mbps}),
				hop(50*unit.Mbps, Source{Kind: ParetoOnOff, Rate: 25 * unit.Mbps}),
				hop(40*unit.Mbps, Source{Kind: Poisson, Rate: 14 * unit.Mbps}),
			},
		},
	})
	Register(Descriptor{
		Name:    "step",
		Aliases: []string{"stepchange"},
		Summary: "time-varying avail-bw: cross rate steps 10→35 Mbps mid-horizon (A: 40→15 Mbps)",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{hop(50*unit.Mbps, Source{
				Kind:  Poisson,
				Steps: []RateStep{{At: 0, Rate: 10 * unit.Mbps}, {At: 5 * time.Minute, Rate: 35 * unit.Mbps}},
			})},
		},
	})
	Register(Descriptor{
		Name:    "postnarrow",
		Aliases: []string{"post-narrow-queuing"},
		Summary: "queuing after the narrow link: idle-ish 50 Mbps hop, then a loaded bursty 100 Mbps tight hop",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(50*unit.Mbps, Source{Kind: CBR, Rate: 5 * unit.Mbps}),
				hop(unit.FastEthernet, Source{Kind: ParetoOnOff, Rate: 65 * unit.Mbps}),
			},
		},
	})

	// --- Internet-realistic link models: AQM, random loss, reordering,
	// time-varying capacity, long heterogeneous paths, and randomized
	// topologies. Conditions the paper's fluid FIFO model abstracts
	// away, under which every estimator's assumptions are stressed.

	Register(Descriptor{
		Name:    "red",
		Aliases: []string{"aqm-red"},
		Summary: "canonical path with RED on the tight link: AQM sheds probe bursts before the buffer fills",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Queue:    Queue{Kind: QueueRED},
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "red-bursty",
		Summary: "RED tight link under Pareto ON-OFF bursts: early drops cluster inside the ON periods",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 60 * unit.Mbps,
				Queue:    Queue{Kind: QueueRED},
				Traffic:  []Source{{Kind: ParetoOnOff, Rate: 30 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "codel",
		Aliases: []string{"aqm-codel"},
		Summary: "canonical path with CoDel on the tight link: sojourn-time head drops bound the standing queue",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Queue:    Queue{Kind: QueueCoDel},
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "codel-mice",
		Summary: "CoDel tight link carrying short TCP transfers: AQM against congestion-responsive cross traffic",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Queue:    Queue{Kind: QueueCoDel},
				Traffic:  []Source{{Kind: Mice, Rate: 20 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "lossy",
		Aliases: []string{"bernoulli-loss"},
		Summary: "1% independent random loss on the tight link: probe gaps that are not congestion signals",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Loss:     Loss{Kind: LossBernoulli, Rate: 0.01},
				Traffic:  []Source{{Kind: CBR, Rate: 25 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "burstloss",
		Aliases: []string{"gilbert", "gilbert-elliott"},
		Summary: "bursty Gilbert–Elliott loss (~4.6% in 10-packet bursts): whole probe trains vanish at once",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Loss:     Loss{Kind: LossGilbertElliott},
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "lossy-long",
		Summary: "six hops each losing 0.3% at random: per-hop loss compounds to ~1.8% end to end",
		Spec: Spec{
			Horizon: long,
			Hops: func() []Hop {
				hops := make([]Hop, 6)
				for i := range hops {
					hops[i] = Hop{
						Capacity: unit.Rate(60+10*i) * unit.Mbps,
						Loss:     Loss{Kind: LossBernoulli, Rate: 0.003},
						Traffic:  []Source{{Kind: Poisson, Rate: unit.Rate(15+5*i) * unit.Mbps}},
					}
				}
				hops[3] = Hop{
					Capacity: 50 * unit.Mbps,
					Loss:     Loss{Kind: LossBernoulli, Rate: 0.003},
					Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
				}
				return hops
			}(),
		},
	})
	Register(Descriptor{
		Name:    "reorder",
		Aliases: []string{"jitter"},
		Summary: "1 ms reordering jitter on the tight link: one-way-delay trends blur at the probe timescale",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				Capacity: 50 * unit.Mbps,
				Reorder:  Reorder{Jitter: time.Millisecond},
				Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "reorder-heavy",
		Summary: "5 ms jitter on two consecutive hops: heavy packet reordering across the path",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				{
					Capacity: unit.FastEthernet,
					Reorder:  Reorder{Jitter: 5 * time.Millisecond},
					Traffic:  []Source{{Kind: Poisson, Rate: 40 * unit.Mbps}},
				},
				{
					Capacity: 50 * unit.Mbps,
					Reorder:  Reorder{Jitter: 5 * time.Millisecond},
					Traffic:  []Source{{Kind: Poisson, Rate: 20 * unit.Mbps}},
				},
			},
		},
	})
	Register(Descriptor{
		Name:    "fading",
		Aliases: []string{"variable-capacity"},
		Summary: "tight-link capacity cycles 50/30/40 Mbps every 100 s: avail-bw varies with no change in load",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				CapacitySteps: []RateStep{
					{At: 0, Rate: 50 * unit.Mbps},
					{At: 100 * time.Second, Rate: 30 * unit.Mbps},
					{At: 200 * time.Second, Rate: 40 * unit.Mbps},
					{At: 300 * time.Second, Rate: 50 * unit.Mbps},
					{At: 400 * time.Second, Rate: 30 * unit.Mbps},
					{At: 500 * time.Second, Rate: 40 * unit.Mbps},
				},
				Traffic: []Source{{Kind: CBR, Rate: 15 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "ramp",
		Summary: "capacity staircases 60→24 Mbps across the run: the long-run mean hides a monotone decline",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				CapacitySteps: func() []RateStep {
					steps := make([]RateStep, 10)
					for i := range steps {
						steps[i] = RateStep{
							At:   time.Duration(i) * time.Minute,
							Rate: unit.Rate(60-4*i) * unit.Mbps,
						}
					}
					return steps
				}(),
				Traffic: []Source{{Kind: Poisson, Rate: 10 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "fading-bursty",
		Summary: "fading capacity under Pareto ON-OFF load: both C(t) and R(t) move at once",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{{
				CapacitySteps: []RateStep{
					{At: 0, Rate: 60 * unit.Mbps},
					{At: 150 * time.Second, Rate: 36 * unit.Mbps},
					{At: 300 * time.Second, Rate: 48 * unit.Mbps},
					{At: 450 * time.Second, Rate: 60 * unit.Mbps},
				},
				Traffic: []Source{{Kind: ParetoOnOff, Rate: 18 * unit.Mbps}},
			}},
		},
	})
	Register(Descriptor{
		Name:    "longpath",
		Aliases: []string{"12hop"},
		Summary: "12 heterogeneous hops with one tight link mid-path: per-hop noise compounds over a long path",
		Spec: Spec{
			Horizon: long,
			Hops: func() []Hop {
				hops := make([]Hop, 12)
				for i := range hops {
					hops[i] = hop(unit.Rate(70+10*(i%4))*unit.Mbps,
						Source{Kind: Poisson, Rate: unit.Rate(20+5*(i%3)) * unit.Mbps})
				}
				hops[6] = hop(50*unit.Mbps, Source{Kind: Poisson, Rate: 28 * unit.Mbps})
				return hops
			}(),
		},
	})
	Register(Descriptor{
		Name:    "verylongpath",
		Aliases: []string{"20hop"},
		Summary: "20 hops, all moderately loaded: the regime where per-hop effects dominate end-to-end inference",
		Spec: Spec{
			Horizon: long,
			Hops: func() []Hop {
				hops := make([]Hop, 20)
				for i := range hops {
					hops[i] = hop(unit.Rate(80+5*(i%5))*unit.Mbps,
						Source{Kind: Poisson, Rate: unit.Rate(25+4*(i%4)) * unit.Mbps})
				}
				hops[10] = hop(55*unit.Mbps, Source{Kind: Poisson, Rate: 30 * unit.Mbps})
				return hops
			}(),
		},
	})
	Register(Descriptor{
		Name:    "asymmetric",
		Aliases: []string{"multi-tight"},
		Summary: "three bottlenecks of very different capacity (90/30/70 Mbps) with the middle one tight",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(90*unit.Mbps, Source{Kind: ParetoOnOff, Rate: 55 * unit.Mbps}),
				hop(30*unit.Mbps, Source{Kind: Poisson, Rate: 12 * unit.Mbps}),
				hop(70*unit.Mbps, Source{Kind: Poisson, Rate: 40 * unit.Mbps}),
			},
		},
	})
	Register(Descriptor{
		Name:    "dualtight",
		Summary: "two hops with exactly equal avail-bw (A = 20 Mbps): no unique tight link exists",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(unit.FastEthernet, Source{Kind: Poisson, Rate: 80 * unit.Mbps}),
				hop(60*unit.Mbps, Source{Kind: Poisson, Rate: 40 * unit.Mbps}),
			},
		},
	})
	Register(Descriptor{
		Name:    "slim",
		Aliases: []string{"dsl"},
		Summary: "a 10 Mbps access link at 40% load: low-rate regime where probe packets are coarse",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(10*unit.Mbps, Source{Kind: CBR, Rate: 4 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "gigabit",
		Summary: "a 1 Gbps link at 40% Poisson load: high-rate regime where timestamp resolution bites",
		Spec: Spec{
			Horizon: long,
			Hops:    []Hop{hop(unit.Gbps, Source{Kind: Poisson, Rate: 400 * unit.Mbps})},
		},
	})
	Register(Descriptor{
		Name:    "internet",
		Aliases: []string{"kitchen-sink"},
		Summary: "8-hop path mixing RED, CoDel, bursty loss, jitter and fading: everything at once",
		Spec: Spec{
			Horizon: long,
			Hops: []Hop{
				hop(unit.FastEthernet, Source{Kind: Poisson, Rate: 35 * unit.Mbps}),
				{
					Capacity: 80 * unit.Mbps,
					Queue:    Queue{Kind: QueueRED},
					Traffic:  []Source{{Kind: ParetoOnOff, Rate: 30 * unit.Mbps}},
				},
				{
					Capacity: 70 * unit.Mbps,
					Reorder:  Reorder{Jitter: 500 * time.Microsecond},
					Traffic:  []Source{{Kind: Poisson, Rate: 25 * unit.Mbps}},
				},
				{
					CapacitySteps: []RateStep{
						{At: 0, Rate: 60 * unit.Mbps},
						{At: 200 * time.Second, Rate: 45 * unit.Mbps},
						{At: 400 * time.Second, Rate: 60 * unit.Mbps},
					},
					Traffic: []Source{{Kind: Poisson, Rate: 20 * unit.Mbps}},
				},
				{
					Capacity: 50 * unit.Mbps,
					Queue:    Queue{Kind: QueueCoDel},
					Traffic:  []Source{{Kind: Poisson, Rate: 24 * unit.Mbps}},
				},
				{
					Capacity: 60 * unit.Mbps,
					Loss:     Loss{Kind: LossBernoulli, Rate: 0.005},
					Traffic:  []Source{{Kind: Poisson, Rate: 20 * unit.Mbps}},
				},
				{
					Capacity: 90 * unit.Mbps,
					Loss:     Loss{Kind: LossGilbertElliott},
					Traffic:  []Source{{Kind: ParetoArrivals, Rate: 30 * unit.Mbps}},
				},
				hop(unit.FastEthernet, Source{Kind: Poisson, Rate: 30 * unit.Mbps}),
			},
		},
	})
	Register(Descriptor{
		Name:    "random-a",
		Summary: "randomized Internet-like topology drawn from RandomSpec at seed 1001",
		Spec:    RandomSpec(rng.New(1001)),
	})
	Register(Descriptor{
		Name:    "random-b",
		Summary: "randomized Internet-like topology drawn from RandomSpec at seed 1002",
		Spec:    RandomSpec(rng.New(1002)),
	})
	Register(Descriptor{
		Name:    "random-c",
		Summary: "randomized Internet-like topology drawn from RandomSpec at seed 1003",
		Spec:    RandomSpec(rng.New(1003)),
	})
}
