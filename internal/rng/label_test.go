package rng

import (
	"strconv"
	"testing"
)

// FuzzLabelMatchesDerive: a Label with a number appended derives the
// stream Derive derives from the label spelled out, the string the
// monitor built per run with fmt.Sprintf before Label existed.
func FuzzLabelMatchesDerive(f *testing.F) {
	for _, n := range []uint64{0, 9, 10, 99, 100, 1<<64 - 1} {
		f.Add(uint64(42), "run/edge-0007/spruce/", n)
	}
	f.Add(uint64(0), "", uint64(7))
	f.Add(uint64(1), "run/Zürich→東京/pathload/", uint64(12345))
	f.Add(uint64(3), "\xff\x00/", uint64(1<<63))
	f.Fuzz(func(t *testing.T, seed uint64, prefix string, n uint64) {
		want := Derive(seed, prefix+strconv.FormatUint(n, 10))
		got := DeriveLabel(seed, NewLabel(prefix).Uint(n))
		for i := 0; i < 4; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, %q+%d: draw %d is %#x, Derive gives %#x", seed, prefix, n, i, g, w)
			}
		}
	})
}

var labelSink Label

func TestLabelUintAllocatesNothing(t *testing.T) {
	l := NewLabel("run/edge-0007/spruce/")
	n := uint64(0)
	if a := testing.AllocsPerRun(100, func() { labelSink = l.Uint(n); n += 12345 }); a != 0 {
		t.Errorf("Label.Uint allocates %v times per call, want 0", a)
	}
}
