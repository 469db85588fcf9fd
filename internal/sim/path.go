package sim

import "fmt"

// Path is an ordered sequence of links from sender to receiver, the
// paper's "end-to-end path through H links". The paper's tight and
// narrow links are scenario.Compiled's TightLink and NarrowLink.
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

// Route returns the link slice to place on packets traversing the whole
// path.
func (p *Path) Route() []*Link { return p.Links }
