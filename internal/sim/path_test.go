package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"abw/internal/unit"
)

// TestTightLinkNeedsEveryRecorder: the tight link is the minimum
// *measured* avail-bw, so a link without a recorder cannot be ranked.
// Treating it as idle would hand back the wrong link: here hop0 (100
// Mbps under 80 Mbps of CBR, A = 20) is the tight link and hop1 (idle
// 50 Mbps) the narrow one, and an unrecorded hop0 would read as 100.
func TestTightLinkNeedsEveryRecorder(t *testing.T) {
	cases := []struct {
		name     string
		recorded [2]bool
		want     string // "tight: <name>", or a substring of the panic
	}{
		{"both recorded", [2]bool{true, true}, "tight: hop0"},
		{"narrow link unrecorded", [2]bool{true, false}, `link "hop1" has no recorder`},
		{"tight link unrecorded", [2]bool{false, true}, `link "hop0" has no recorder`},
		{"none recorded", [2]bool{false, false}, `link "hop0" has no recorder`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			links := []*Link{s.NewLink("hop0", 100*unit.Mbps, 0), s.NewLink("hop1", 50*unit.Mbps, 0)}
			for i, l := range links {
				if tc.recorded[i] {
					l.Attach(NewRecorder(l.Capacity))
				}
			}
			gap := unit.GapFor(1500, 80*unit.Mbps)
			for at := time.Duration(0); at < time.Second; at += gap {
				s.Inject(&Packet{Size: 1500, Kind: KindCross, Route: links[:1]}, at)
			}
			s.Run()
			p := MustPath(links...)

			got := func() (got string) {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				return "tight: " + p.TightLink(100*time.Millisecond, 800*time.Millisecond).Name
			}()
			if !strings.Contains(got, tc.want) {
				t.Errorf("TightLink = %q, want %q", got, tc.want)
			}
		})
	}
}
