package sim

import (
	"fmt"
	"time"

	"abw/internal/unit"
)

// Path is an ordered sequence of links from sender to receiver, the
// paper's "end-to-end path through H links". It provides the derived
// quantities the paper defines: the narrow link (minimum capacity) and,
// given per-link utilization ground truth, the tight link (minimum
// avail-bw).
type Path struct {
	Links []*Link
}

// NewPath builds a path over the given links. At least one link is
// required.
func NewPath(links ...*Link) (*Path, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("sim: a path needs at least one link")
	}
	for i, l := range links {
		if l == nil {
			return nil, fmt.Errorf("sim: nil link at hop %d", i)
		}
	}
	return &Path{Links: links}, nil
}

// MustPath is NewPath that panics on error, for experiment setup code
// whose arguments are compile-time constants.
func MustPath(links ...*Link) *Path {
	p, err := NewPath(links...)
	if err != nil {
		panic(err)
	}
	return p
}

// TightLink returns the link with the minimum measured avail-bw over
// [from, from+window), computed from each link's attached Recorder —
// the paper's distinction between the tight link (minimum avail-bw)
// and the narrow link (minimum capacity). It panics, naming the link,
// when a link has no recorder (an unmeasured link is not an idle one),
// and on a non-positive window, matching Recorder.Utilization.
func (p *Path) TightLink(from, window time.Duration) *Link {
	avail := func(l *Link) unit.Rate {
		if l.rec == nil {
			panic(fmt.Sprintf("sim: tight link asked of a path whose link %q has no recorder", l.Name))
		}
		return l.rec.AvailBw(from, window)
	}
	min := p.Links[0]
	minA := avail(min)
	for _, l := range p.Links[1:] {
		if a := avail(l); a < minA {
			min, minA = l, a
		}
	}
	return min
}

// NarrowLink returns the link with the minimum capacity C_n.
func (p *Path) NarrowLink() *Link {
	min := p.Links[0]
	for _, l := range p.Links[1:] {
		if l.Capacity < min.Capacity {
			min = l
		}
	}
	return min
}

// BasePropDelay returns the sum of propagation delays plus the sum of
// transmission times for a packet of the given size — the minimum
// possible one-way delay along the path, used to normalize OWD series.
func (p *Path) BasePropDelay(size unit.Bytes) time.Duration {
	var d time.Duration
	for _, l := range p.Links {
		d += l.PropDelay + unit.TxTime(size, l.Capacity)
	}
	return d
}

// Route returns the link slice to place on packets traversing the whole
// path.
func (p *Path) Route() []*Link { return p.Links }
