package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"abw/internal/unit"
)

// A folding link serves its fed one-hop cross traffic by arithmetic.
// On a FIFO link with an unbounded buffer nothing a later arrival does
// can change an earlier packet's departure, which Lindley's recursion
// fixes on arrival:
//
//	departure = max(arrival, previous departure) + L/C
//
// So the link keeps each folded series' pending element and admits
// elements only when something could tell the difference: before an
// event-driven packet (a probe, a TCP segment, an event-fed packet) is
// delivered to it, when an accessor is read, and at the end of every
// run. It admits exactly the elements whose feed events would already
// have fired — those whose (time, reserved number) sorts before the
// clock's (now, seq) — in that order, so every departure equals the
// event path's. An event-driven packet's completion is scheduled on
// arrival and does what txDone does, minus starting the next packet.
// Admitted packets wait in deps until their departure passes, which
// keeps Forwarded, BytesServed, QueueLen and QueuedBytes exact between
// events.

// maxTime is the clock bound that serves a folded series to its end.
const maxTime = time.Duration(math.MaxInt64)

// folder is a folding link's state.
type folder struct {
	feeds []*feed       // folded series that still have a pending element
	free  time.Duration // when the transmitter finishes the last admitted packet
	deps  []departure   // admitted packets not yet departed, in departure order
	head  int           // deps[:head] have departed
	bytes unit.Bytes    // bytes of deps[head:]
}

// departure is one admitted packet's transmission end.
type departure struct {
	at   time.Duration
	size unit.Bytes
	fed  bool // a folded element rather than an event-driven packet
}

// canFold reports whether the link is a plain idle FIFO, the only kind
// whose fed traffic may be folded.
func (l *Link) canFold() bool {
	return l.disc == nil && l.loss == nil && l.jitterMax == 0 && l.capSteps == nil &&
		l.BufferBytes == 0 && l.rec == nil && !l.busy
}

// mustNotFold panics when a link that already folds is given a behavior
// folding cannot serve.
func (l *Link) mustNotFold(what string) {
	if l.fold != nil {
		panic(fmt.Sprintf("sim: %s on link %q, which already folds fed cross traffic; configure a link before feeding it", what, l.Name))
	}
}

// foldFeed makes f one of the link's folded series.
func (l *Link) foldFeed(f *feed) {
	s := l.sim
	if l.fold == nil {
		l.fold = &folder{}
		s.folding = append(s.folding, l)
		s.callbacks() // departFolded hands packets on with advanceFn
	}
	if f.pull(s.now) {
		l.fold.feeds = append(l.fold.feeds, f)
	}
}

// foldAll brings every folding link up to (t, seq).
func (s *Sim) foldAll(t time.Duration, seq uint64) {
	for _, l := range s.folding {
		l.catchUp(t, seq)
	}
}

// catchUp admits, in arrival order, every folded element that sorts
// before (now, seq), then retires the departures up to now.
func (l *Link) catchUp(now time.Duration, seq uint64) {
	if l.BufferBytes != 0 {
		panic(fmt.Sprintf("sim: link %q folds fed cross traffic but has a %v buffer bound; set BufferBytes before feeding it", l.Name, l.BufferBytes))
	}
	fd := l.fold
	fd.retire(l, now)
	for {
		f := fd.earliest()
		if f == nil || f.at > now || f.at == now && f.seq >= seq {
			break
		}
		if dep := fd.admit(f.at, f.size, l.Capacity); dep <= now && fd.head == len(fd.deps) {
			l.depart(f.size, true)
		} else {
			fd.push(dep, f.size, true)
		}
		f.seq++
		if !f.pull(f.at) {
			i := slices.Index(fd.feeds, f)
			fd.feeds = slices.Delete(fd.feeds, i, i+1)
		}
	}
	fd.retire(l, now)
}

// deliverFolded is deliver on a folding link: catch up to the arriving
// packet's place in the order, then schedule its departure.
func (l *Link) deliverFolded(p *Packet) {
	s := l.sim
	l.catchUp(s.now, s.seq)
	dep := l.fold.admit(s.now, p.Size, l.Capacity)
	l.fold.push(dep, p.Size, false)
	s.atArg(dep, departFolded, p)
}

// departFolded completes an event-driven packet's transmission on a
// folding link; its counters were settled with the departure list.
func departFolded(arg any) {
	p := arg.(*Packet)
	p.Route[p.hop].handOff(p)
}

// depart counts one finished transmission.
func (l *Link) depart(size unit.Bytes, fed bool) {
	l.forwarded++
	l.bytesServed += size
	if fed {
		l.sim.stats.Folded++
	}
}

// settle brings a folding link up to the clock, so its accessors read
// what the event path shows between events.
func (l *Link) settle() {
	if l.fold != nil {
		l.catchUp(l.sim.now, l.sim.seq)
	}
}

// admit runs one step of Lindley's recursion and returns the departure.
func (fd *folder) admit(at time.Duration, size unit.Bytes, c unit.Rate) time.Duration {
	fd.free = max(at, fd.free) + unit.TxTime(size, c)
	return fd.free
}

func (fd *folder) push(at time.Duration, size unit.Bytes, fed bool) {
	fd.deps = append(fd.deps, departure{at, size, fed})
	fd.bytes += size
}

// retire counts the departures up to now, compacting the list as
// Link.pop does.
func (fd *folder) retire(l *Link, now time.Duration) {
	for fd.head < len(fd.deps) && fd.deps[fd.head].at <= now {
		d := fd.deps[fd.head]
		fd.head++
		fd.bytes -= d.size
		l.depart(d.size, d.fed)
	}
	if fd.head == len(fd.deps) {
		fd.deps, fd.head = fd.deps[:0], 0
	} else if fd.head > 64 && fd.head*2 >= len(fd.deps) {
		n := copy(fd.deps, fd.deps[fd.head:])
		fd.deps, fd.head = fd.deps[:n], 0
	}
}

// earliest returns the series whose pending element arrives first, by
// (time, reserved number), or nil when every series has ended.
func (fd *folder) earliest() *feed {
	var first *feed
	for _, f := range fd.feeds {
		if first == nil || f.at < first.at || f.at == first.at && f.seq < first.seq {
			first = f
		}
	}
	return first
}

// queueLen and queuedBytes read the waiting packets off the departure
// list: after a catch-up its head is the packet in service.
func (fd *folder) queueLen() int { return max(len(fd.deps)-fd.head-1, 0) }

func (fd *folder) queuedBytes() unit.Bytes {
	if fd.head == len(fd.deps) {
		return 0
	}
	return fd.bytes - fd.deps[fd.head].size
}
