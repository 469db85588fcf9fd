package registry

import (
	"abw/internal/core"
	"abw/internal/tools/delphi"
	"abw/internal/tools/igi"
	"abw/internal/tools/learned"
	"abw/internal/tools/pathchirp"
	"abw/internal/tools/pathload"
	"abw/internal/tools/spruce"
	"abw/internal/tools/topp"
	"abw/internal/unit"
)

// This file is the one place each tool package is imported and its
// Descriptor registered: the tool's name, what it needs, its published
// defaults, and the mapping from the uniform Params onto its Config.
// Registration order is the paper's presentation order, which the
// compare experiment and the CLI catalogs inherit.
func init() {
	Register(Descriptor{
		Name:             "pathload",
		Summary:          "iterative probing, OWD-trend binary search, variation range (Jain & Dovrolis)",
		NeedsRateBracket: true,
		Defaults:         Params{PktSize: 1500, StreamLen: 100, Repeat: 6, MaxRounds: 24},
		Build: func(p Params) (core.Estimator, error) {
			lo, hi, err := bracket(p, 1, 25, 49, 50)
			if err != nil {
				return nil, err
			}
			return pathload.New(pathload.Config{
				MinRate: lo, MaxRate: hi,
				PktSize: p.PktSize, StreamLen: p.StreamLen,
				StreamsPerRate: p.Repeat, MaxRounds: p.MaxRounds,
			})
		},
	})
	Register(Descriptor{
		Name:             "topp",
		Summary:          "iterative probing, linear rate sweep with capacity regression (Melander et al.)",
		NeedsRateBracket: true,
		Defaults:         Params{PktSize: 1500, Repeat: 40},
		Build: func(p Params) (core.Estimator, error) {
			lo, hi, err := bracket(p, 1, 10, 9, 10)
			if err != nil {
				return nil, err
			}
			return topp.New(topp.Config{
				MinRate: lo, MaxRate: hi,
				PktSize: p.PktSize, PairsPerRate: p.Repeat,
			})
		},
	})
	Register(Descriptor{
		Name:             "pathchirp",
		Aliases:          []string{"chirp"},
		Summary:          "iterative probing, exponentially spaced chirps (Ribeiro et al.)",
		NeedsRateBracket: true,
		Defaults:         Params{PktSize: 1000, StreamLen: 15, Repeat: 12},
		Build: func(p Params) (core.Estimator, error) {
			lo, hi, err := bracket(p, 1, 10, 24, 25)
			if err != nil {
				return nil, err
			}
			return pathchirp.New(pathchirp.Config{
				Lo: lo, Hi: hi,
				PktSize: p.PktSize, PacketsPerChirp: p.StreamLen, Chirps: p.Repeat,
			})
		},
	})
	Register(Descriptor{
		Name:    "ptr",
		Summary: "iterative probing, train rate at the turning point (Hu & Steenkiste)",
		// PTR starts its gap search from RateHi (or the capacity):
		// declaring the bracket keeps MissingParams honest — without
		// it a caller providing nothing would pass descriptor
		// validation only to fail in the tool's own Config check.
		NeedsRateBracket: true,
		Defaults:         Params{PktSize: 750, StreamLen: 60, MaxRounds: 30},
		Build: func(p Params) (core.Estimator, error) {
			// The initial (fastest) rate is the bracket top when given,
			// else the capacity; igi's own validation rejects neither.
			return igi.New(igi.Config{
				InitRate: firstPositive(p.RateHi, p.Capacity),
				PktSize:  p.PktSize, TrainLen: p.StreamLen, MaxIterations: p.MaxRounds,
			})
		},
	})
	Register(Descriptor{
		Name:          "igi",
		Summary:       "hybrid probing, gap model at the turning point; needs C_t (Hu & Steenkiste)",
		NeedsCapacity: true,
		Defaults:      Params{PktSize: 750, StreamLen: 60, MaxRounds: 30},
		Build: func(p Params) (core.Estimator, error) {
			// InitRate deliberately stays unset: IGI's gap model wants
			// the search to start at the capacity (back-to-back gap),
			// which igi.Config defaults to.
			return igi.New(igi.Config{
				Mode: igi.IGI, Capacity: p.Capacity,
				PktSize: p.PktSize, TrainLen: p.StreamLen, MaxIterations: p.MaxRounds,
			})
		},
	})
	Register(Descriptor{
		Name:          "delphi",
		Summary:       "direct probing, one avail-bw sample per train; needs C_t (Ribeiro et al.)",
		NeedsCapacity: true,
		Defaults:      Params{PktSize: 1500, StreamLen: 100, Repeat: 20},
		Build: func(p Params) (core.Estimator, error) {
			return delphi.New(delphi.Config{
				Capacity: p.Capacity,
				PktSize:  p.PktSize, TrainLen: p.StreamLen, Trains: p.Repeat,
			})
		},
	})
	Register(Descriptor{
		Name:          "spruce",
		Summary:       "direct probing, Poisson-spaced packet pairs; needs C_t (Strauss et al.)",
		NeedsCapacity: true,
		NeedsRand:     true,
		Defaults:      Params{PktSize: 1500, Repeat: 100},
		Build: func(p Params) (core.Estimator, error) {
			return spruce.New(spruce.Config{
				Capacity: p.Capacity, Rand: p.Rand,
				PktSize: p.PktSize, Pairs: p.Repeat,
			})
		},
	})
	Register(Descriptor{
		Name:          "learned",
		Aliases:       []string{"ml", "ridge-knn"},
		Summary:       "learned estimator: ridge + k-NN over the shared probe features; needs C_t (trained on the catalog)",
		NeedsCapacity: true,
		// The probe plan lives in the weight file; Params overrides map
		// onto it (StreamLen → packets per stream, Repeat → streams per
		// rate fraction) so budget-fair Quick runs stay possible.
		Defaults: Params{},
		Build: func(p Params) (core.Estimator, error) {
			return learned.New(learned.Config{
				Capacity: p.Capacity,
				PktSize:  p.PktSize, StreamLen: p.StreamLen,
				StreamsPerFrac: p.Repeat,
			})
		},
	})
}

// firstPositive returns the first positive rate.
func firstPositive(rates ...unit.Rate) unit.Rate {
	for _, r := range rates {
		if r > 0 {
			return r
		}
	}
	return 0
}
