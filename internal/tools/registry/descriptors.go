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
)

// This file is the one place each tool's Descriptor is registered: its
// name, what it needs, and its constructor and published defaults,
// both read from the tool's package. Registration order is the paper's
// presentation order, which the compare experiment and the CLI catalogs
// inherit.
func init() {
	Register(Descriptor{
		Name:             "pathload",
		Summary:          "iterative probing, OWD-trend binary search, variation range (Jain & Dovrolis)",
		NeedsRateBracket: true,
		Defaults:         pathload.Defaults(),
		Build:            build(pathload.New),
	})
	Register(Descriptor{
		Name:             "topp",
		Summary:          "iterative probing, linear rate sweep with capacity regression (Melander et al.)",
		NeedsRateBracket: true,
		Defaults:         topp.Defaults(),
		Build:            build(topp.New),
	})
	Register(Descriptor{
		Name:             "pathchirp",
		Aliases:          []string{"chirp"},
		Summary:          "iterative probing, exponentially spaced chirps (Ribeiro et al.)",
		NeedsRateBracket: true,
		Defaults:         pathchirp.Defaults(),
		Build:            build(pathchirp.New),
	})
	Register(Descriptor{
		Name:    "ptr",
		Summary: "iterative probing, train rate at the turning point (Hu & Steenkiste)",
		// PTR starts its gap search from RateHi (or the capacity):
		// declaring the bracket keeps MissingParams honest — without
		// it a caller providing nothing would pass descriptor
		// validation only to fail in the tool's own check.
		NeedsRateBracket: true,
		Defaults:         igi.Defaults(),
		Build:            build(igi.NewPTR),
	})
	Register(Descriptor{
		Name:          "igi",
		Summary:       "hybrid probing, gap model at the turning point; needs C_t (Hu & Steenkiste)",
		NeedsCapacity: true,
		Defaults:      igi.Defaults(),
		Build:         build(igi.NewIGI),
	})
	Register(Descriptor{
		Name:          "delphi",
		Summary:       "direct probing, one avail-bw sample per train; needs C_t (Ribeiro et al.)",
		NeedsCapacity: true,
		Defaults:      delphi.Defaults(),
		Build:         build(delphi.New),
	})
	Register(Descriptor{
		Name:          "spruce",
		Summary:       "direct probing, Poisson-spaced packet pairs; needs C_t (Strauss et al.)",
		NeedsCapacity: true,
		NeedsRand:     true,
		Defaults:      spruce.Defaults(),
		Build:         build(spruce.New),
	})
	Register(Descriptor{
		Name:          "learned",
		Aliases:       []string{"ml", "ridge-knn"},
		Summary:       "learned estimator: ridge + k-NN over the shared probe features; needs C_t (trained on the catalog)",
		NeedsCapacity: true,
		Defaults:      learned.Defaults(),
		Build:         build(learned.New),
	})
}

// build adapts a tool's constructor to Descriptor.Build.
func build[E core.Estimator](newTool func(core.Params) (E, error)) func(Params) (core.Estimator, error) {
	return func(p Params) (core.Estimator, error) {
		est, err := newTool(p)
		if err != nil {
			return nil, err
		}
		return est, nil
	}
}
