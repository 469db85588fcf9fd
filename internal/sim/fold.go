package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"abw/internal/unit"
)

// A folding link serves its fed one-hop cross traffic by arithmetic.
// On a FIFO link nothing a later arrival does can change an earlier
// packet's departure, which Lindley's recursion fixes on admission:
//
//	departure = max(arrival, previous departure) + L/C
//
// So the link keeps each folded series' pending element and admits
// elements only when something could tell the difference: before an
// event-driven packet (a probe, a TCP segment, an event-fed packet) is
// delivered to it, when an accessor is read, and at the end of every
// run. It admits exactly the elements whose feed events would already
// have fired — those whose (time, reserved number) sorts before the
// clock's (now, seq) — in that order, and does for each what deliver,
// startTx and txDone would: the loss draw at arrival, the tail-drop
// check against the bytes queued at that instant, the jitter draw in
// departure order (FIFO: admission order), and the rate the capacity
// schedule gives at the transmission's start. An event-driven packet's
// completion is scheduled on admission and does what txDone does,
// minus starting the next packet. A batched probe stream (batch.go)
// admits its packets, and the fed elements before them, ahead of the
// clock. Admitted packets wait in deps until their departure passes,
// which keeps Forwarded, BytesServed, QueueLen and QueuedBytes exact
// between events.
//
// Two events at one nanosecond can be told apart on a link with a
// buffer bound or a capacity schedule, and a completion's place among
// the events of its nanosecond decides what the next hop sees first.
// The fold reproduces the event path's orders (DESIGN.md, "Folded
// links"):
//
//   - a fed arrival precedes a departure at its instant: its number was
//     reserved when Feed was called, before the link started anything;
//   - an event-driven arrival precedes a departure at its instant if
//     the departure's completion has the greater number;
//   - a transmission starting on a capacity step's instant gets the new
//     rate if the step fired first: for a fed arrival, if the step's
//     number is below the element's; for an event-driven arrival, if
//     the step has fired (Capacity is live); for a departure, if the
//     departing packet was itself sent under the previous step;
//   - an event-driven packet's completion fires at the number the event
//     path gives it.
//
// The event path numbers a completion when the transmission starts,
// and a folded transmission starts at a place no event marks: a fed
// arrival's or a folded departure's. While a link that is not plain
// folds, the simulation logs each event it fires with the queue's next
// number at that moment (the firing log). The number a completion would
// have taken is then the next number at its start, read off the first
// event fired after it, minus one: numbers count in twos, so the odd
// number sorts after every event scheduled before the start and before
// every event scheduled after it.

// maxTime is the clock bound that serves a folded series to its end.
const maxTime = time.Duration(math.MaxInt64)

// place is a point in the firing order: the event with key k at time
// at.
type place struct {
	at time.Duration
	k  key
}

// later reports whether place a comes after place b.
func (s *Sim) later(a, b place) bool { return a.at > b.at || a.at == b.at && s.before(b.k, a.k) }

// fired is one firing-log entry: an event's place and the queue's next
// number when it fired.
type fired struct {
	place
	next uint64
}

// logCap bounds the firing log: when it fills, every folding link
// catches up and the log starts afresh.
const logCap = 1 << 12

// logFire appends the firing event to the log.
func (s *Sim) logFire(at time.Duration, seq uint64) {
	if len(s.log) == logCap {
		s.foldAll(at, seq)
		s.resetLog(at, seq)
	}
	s.log = append(s.log, fired{place{at, key{num: seq}}, s.q.ReserveSeq(0)})
}

// resetLog empties the firing log once every folding link has caught
// up to (now, seq) and numbered the completions started before it: no
// later question concerns a place before it.
func (s *Sim) resetLog(now time.Duration, seq uint64) {
	if s.log == nil {
		return
	}
	for _, l := range s.folding {
		if !l.fold.plain {
			l.numberPast(now, seq)
		}
	}
	s.log = s.log[:0]
	s.logGen++
}

// key is the place of a folded completion among the events of its
// instant. A completion takes its number when its transmission starts,
// so two completions numbered in one window between events are ordered
// by when their transmissions started, then by the events that started
// them: cause is that event's number, and by names it when it was
// itself a folded completion.
type key struct {
	num    uint64 // 0 until the transmission's start has passed
	start  time.Duration
	cause  uint64
	by     ref
	serial uint32 // this completion's, on its link
	link   int32  // this completion's link, as a ref names it
}

// ref names a numbered completion: its link's index in Sim.folding plus
// one, and its serial there.
type ref struct {
	link   int32
	serial uint32
}

// ringLen is how many numbered completions a link keeps for orders
// decided further back.
const ringLen = 16

// before reports whether completion a fires before b when they share an
// instant. It walks back the events that started them while those
// agree, as far as the links remember; it reports false when they
// cannot be told apart.
func (s *Sim) before(a, b key) bool {
	for i := 0; i < ringLen; i++ {
		if a.num != b.num {
			return a.num < b.num
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.cause != b.cause {
			return a.cause < b.cause
		}
		var ok bool
		if a, ok = s.completion(a.by); !ok {
			return false
		}
		if b, ok = s.completion(b.by); !ok {
			return false
		}
	}
	return false
}

// completion returns the numbered completion r names, if its link still
// remembers it.
func (s *Sim) completion(r ref) (key, bool) {
	if r.link == 0 {
		return key{}, false
	}
	k := s.folding[r.link-1].fold.ring[r.serial%ringLen]
	return k, k.serial == r.serial
}

// current is the key of the firing event: a real event's number, or the
// folded completion departFolded fires.
func (s *Sim) current() key {
	if s.done.num == s.seq {
		return s.done
	}
	return key{num: s.seq}
}

// folder is a folding link's state.
type folder struct {
	feeds []*feed       // folded series that still have a pending element
	free  time.Duration // when the transmitter finishes the last admitted packet
	end   time.Duration // the last fed arrival that was lost or dropped
	deps  []departure   // admitted packets not yet departed, in departure order
	head  int           // deps[:head] have departed
	bytes unit.Bytes    // bytes of deps[head:]

	// plain marks a link with no loss model, jitter, capacity schedule
	// or buffer bound, which takes the branch-light catch-up.
	plain bool
	// Off the plain path: keys parallels deps. A completion is numbered
	// only when a tie or an event-driven packet asks, together with the
	// ones before it back to its busy period's start (root, the latest
	// departure not started by another) or to one already numbered;
	// last is the completion before deps[0] when the list dropped a busy
	// period's start. gone is the latest departure retired, and goneKey
	// its completion once the list has let it go; step is the capacity
	// step the latest admitted packet is sent under.
	keys    []key
	root    int
	last    key
	gone    departure
	goneKey key
	step    int
	// ring keeps the latest numbered completions by serial; idx is the
	// link's ref index; logAt is where the link reads the firing log,
	// valid while logGen matches the simulation's.
	ring   [ringLen]key
	serial uint32
	idx    int32
	logAt  int
	logGen uint64
	// eds holds, for each event-driven packet admitted and not yet
	// handed on, in departure order from edHead, its completion's key
	// and its jitter draw.
	eds    []edDeparture
	edHead int

	// ahead is the latest arrival a batch admitted (batch.go), -1 before
	// the first. While batching is set the link admits ahead of the
	// clock, and fed elements it loses wait in losses, from lossHead,
	// until the clock passes them.
	ahead    time.Duration
	edAt     time.Duration // the latest event-driven arrival admitted
	batching bool
	losses   []lossAt
	lossHead int
}

// lossAt is a fed element a batch lost ahead of the clock.
type lossAt struct {
	at   time.Duration
	size unit.Bytes
}

// edDeparture is what departFolded needs of an event-driven packet on a
// link that is not plain.
type edDeparture struct {
	done   key
	jitter time.Duration
}

// departure is one admitted packet's transmission end.
type departure struct {
	at      time.Duration
	arr     time.Duration // when it reached the link
	size    unit.Bytes
	fed     bool // a folded element rather than an event-driven packet
	batched bool // a batched probe (batch.go)
	waited  bool // started by the departure before it, off the plain path
}

// canFold reports whether a fed series may be folded onto the link:
// one with no discipline, on which nothing is in
// transmission, so that every completion the link schedules comes
// after the series' reserved numbers, while no batched stream is in
// flight, which may have admitted arrivals ahead of the new series'.
func (l *Link) canFold() bool {
	if l.disc != nil || l.sim.streams > 0 {
		return false
	}
	if l.fold == nil || l.fold.plain {
		return !l.busy
	}
	l.settle()
	return l.fold.free < l.sim.now
}

// mustNotFold panics when a link that already folds is reconfigured:
// its catch-up was chosen for the behavior it had when first fed.
func (l *Link) mustNotFold(what string) {
	if l.fold != nil {
		panic(fmt.Sprintf("sim: %s on link %q, which already folds fed cross traffic; configure a link before feeding it", what, l.Name))
	}
}

// foldFeed makes f one of the link's folded series.
func (l *Link) foldFeed(f *feed) {
	l.folds()
	if f.pull(l.sim.now) {
		l.fold.feeds = append(l.fold.feeds, f)
	}
}

// folds makes the link a folding one, if it is not already.
func (l *Link) folds() {
	s := l.sim
	if l.fold != nil {
		return
	}
	l.fold = &folder{
		free:  -1,
		plain: l.loss == nil && l.jitterMax == 0 && l.capSteps == nil && l.buffer == 0,
		gone:  departure{at: -1},
		ahead: -1,
	}
	s.folding = append(s.folding, l)
	l.fold.idx = int32(len(s.folding))
	s.callbacks() // departFolded hands packets on with advanceFn
	if !l.fold.plain && s.log == nil {
		s.log = make([]fired, 0, 64)
	}
}

// foldAll brings every folding link up to (t, seq).
func (s *Sim) foldAll(t time.Duration, seq uint64) {
	for _, l := range s.folding {
		l.catchUp(t, seq)
	}
}

// catchUp admits, in arrival order, every folded element that sorts
// before (now, seq), then retires the departures up to now — on a link
// that is not plain, those before now if an element at now is still
// to come, since its departure follows it.
func (l *Link) catchUp(now time.Duration, seq uint64) {
	fd := l.fold
	if !fd.plain {
		l.catchUpExact(now, seq)
		return
	}
	fd.retire(l, now)
	for {
		f := fd.earliest()
		if f == nil || f.at > now || f.at == now && f.seq >= seq {
			break
		}
		if dep := fd.admit(f.at, f.size, l.Capacity); dep <= now && fd.head == len(fd.deps) {
			l.depart(f.size)
		} else {
			fd.push(departure{at: dep, arr: f.at, size: f.size, fed: true})
		}
		f.seq++
		if !f.pull(f.at) {
			fd.drop(f)
		}
	}
	fd.retire(l, now)
}

// catchUpExact is catchUp on a link that is not plain.
func (l *Link) catchUpExact(now time.Duration, seq uint64) {
	fd := l.fold
	through := now
	for {
		f := fd.earliest()
		if f == nil || f.at > now {
			break
		}
		if f.at == now && f.seq >= seq {
			through--
			break
		}
		l.admitFed(f)
		f.seq++
		if !f.pull(f.at) {
			fd.drop(f)
		}
	}
	fd.retire(l, through)
}

// numberPast numbers every completion whose transmission started before
// (now, seq), for the firing log is about to forget that stretch.
func (l *Link) numberPast(now time.Duration, seq uint64) {
	fd := l.fold
	n := fd.head
	if n < len(fd.deps) && (!fd.deps[n].waited || !l.sim.later(place{fd.gone.at, l.goneKey()}, place{now, l.sim.current()})) {
		n++ // the transmission in service started before it
	}
	if n > 0 {
		l.keyOf(n - 1)
	}
}

// drop removes series f, which has ended.
func (fd *folder) drop(f *feed) {
	i := slices.Index(fd.feeds, f)
	fd.feeds = slices.Delete(fd.feeds, i, i+1)
}

// keyOf returns the completion place of departure i, whose
// transmission started at a place that has passed. A departure started
// by the one before it is numbered at that one's completion, so it
// numbers, in order, the departures from the nearest one that needs no
// other: its busy period's start, or the first after one already
// numbered.
func (l *Link) keyOf(i int) key {
	fd := l.fold
	j := i
	for j > 0 && fd.deps[j].waited && fd.keys[j-1].num == 0 {
		j--
	}
	for ; j <= i; j++ {
		k := &fd.keys[j]
		if k.num != 0 {
			continue
		}
		at := place{k.start, key{num: k.cause}}
		if fd.deps[j].waited {
			pred := fd.last
			if j > 0 {
				pred = fd.keys[j-1]
			}
			k.cause, k.by = pred.num, ref{fd.idx, pred.serial}
			at.k = pred
		}
		k.num = l.nextAt(at) - 1
		fd.remember(k)
	}
	return fd.keys[i]
}

// goneKey returns the completion place of the latest departure retired.
func (l *Link) goneKey() key {
	if fd := l.fold; fd.head > 0 {
		return l.keyOf(fd.head - 1)
	}
	return l.fold.goneKey
}

// remember gives a numbered completion its serial and keeps it.
func (fd *folder) remember(k *key) {
	fd.serial++
	k.serial, k.link = fd.serial, fd.idx
	fd.ring[fd.serial%ringLen] = *k
}

// nextAt returns the queue's next number at the place p: the one the
// first event fired after p found. The places a link asks about mostly
// grow, so it searches the log on from where it left off, in doubling
// steps and then by halves.
func (l *Link) nextAt(p place) uint64 {
	s, fd := l.sim, l.fold
	if fd.logGen != s.logGen || fd.logAt > 0 && s.later(s.log[fd.logAt-1].place, p) {
		fd.logGen, fd.logAt = s.logGen, 0
	}
	if fd.logAt < len(s.log) && s.log[fd.logAt].at > p.at && (fd.logAt == 0 || s.log[fd.logAt-1].at < p.at) {
		return s.log[fd.logAt].next // most asks fall between the same two events
	}
	lo, hi := fd.logAt, fd.logAt+1 // log[:lo] is not after p
	for hi <= len(s.log) && !s.later(s.log[hi-1].place, p) {
		lo, hi = hi, hi+2*(hi-lo)
	}
	hi = min(hi, len(s.log))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.later(s.log[mid].place, p) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	fd.logAt = lo
	if lo == len(s.log) {
		return s.q.ReserveSeq(0)
	}
	return s.log[lo].next
}

// admitFed is deliver, startTx and txDone for the pending element of f
// on a link that is not plain.
func (l *Link) admitFed(f *feed) {
	fd := l.fold
	if l.loss != nil && l.loss.Lose() {
		if fd.batching {
			fd.losses = append(fd.losses, lossAt{f.at, f.size})
		} else {
			l.lost++
			l.lostBytes += f.size
		}
		fd.end = f.at
		return
	}
	if l.buffer > 0 {
		// Departures at the element's own instant come after it.
		fd.retireThrough(l, f.at-1)
		if fd.head < len(fd.deps) && fd.bytes-fd.deps[fd.head].size+f.size > l.buffer {
			l.dropped++
			l.droppedBytes += f.size
			fd.end = f.at
			return
		}
	}
	l.admitAt(departure{arr: f.at, size: f.size, fed: true}, f.seq) // the jitter draw, which nothing observes
}

// admitAt is startTx and txDone, on a link that is not plain, for the
// packet d that arrived at d.arr under the number cause and was
// admitted. It returns the packet's jitter draw.
func (l *Link) admitAt(d departure, cause uint64) time.Duration {
	fd := l.fold
	k := key{start: d.arr, cause: cause}
	if fd.free >= d.arr {
		d.waited, k = true, key{start: fd.free}
		fd.step = l.stepByDeparture(fd.free, fd.step)
	} else {
		fd.step = l.stepAt(d.arr, fd.step)
		if i := fd.step; i > 0 && l.capSteps[i].At == d.arr && l.capSeq[i] > cause {
			fd.step-- // the step fires after the arrival
		}
	}
	fd.free = k.start + unit.TxTime(d.size, l.rate(fd.step))
	d.at = fd.free
	if !d.waited {
		fd.root = len(fd.deps)
	}
	fd.push(d)
	fd.keys = append(fd.keys, k)
	return l.jitter()
}

// deliverFolded is deliver on a folding link: catch up to the arriving
// packet's place in the order, then admit it and schedule its
// departure.
func (l *Link) deliverFolded(p *Packet) {
	s := l.sim
	fd := l.fold
	if s.now <= fd.ahead {
		panic(fmt.Sprintf("sim: a packet reaches link %q at %v, where a batched probe stream has admitted arrivals up to %v", l.Name, s.now, fd.ahead))
	}
	l.catchUp(s.now, s.seq)
	fd.edAt = s.now
	if fd.plain {
		fd.push(departure{at: fd.admit(s.now, p.Size, l.Capacity), arr: s.now, size: p.Size})
		s.atArg(fd.free, departFolded, p)
		return
	}
	if l.loss != nil && l.loss.Lose() {
		l.kill(p, s.now)
		return
	}
	// A departure at this instant is still under way if its completion
	// fires after this event.
	now := s.current()
	tied := fd.gone.at == s.now && s.before(now, l.goneKey())
	busy := fd.head < len(fd.deps) || tied
	if l.buffer > 0 && busy {
		queued := fd.bytes
		if !tied {
			queued -= fd.deps[fd.head].size
		}
		if queued+p.Size > l.buffer {
			l.drop(p, s.now)
			return
		}
	}
	d, k := departure{arr: s.now, size: p.Size}, key{start: s.now}
	if busy {
		d.waited, k.start = true, max(fd.free, s.now)
		fd.step = l.stepByDeparture(k.start, fd.step)
	} else {
		// The completion is scheduled now, as on the event path: it takes
		// the number departFolded is about to.
		k.num, k.cause, k.by = s.q.ReserveSeq(0), now.num, ref{now.link, now.serial}
		fd.remember(&k)
		fd.step = l.capIdx
		fd.root = len(fd.deps)
	}
	fd.free = k.start + unit.TxTime(p.Size, l.rate(fd.step))
	d.at = fd.free
	fd.push(d)
	fd.keys = append(fd.keys, k)
	fd.eds = append(fd.eds, edDeparture{k, l.jitter()})
	s.atArg(fd.free, departFolded, p)
}

// departFolded completes an event-driven packet's transmission on a
// folding link; its counters were settled with the departure list. Off
// the plain path, a packet that waited for the transmitter first
// learns its completion's number, and fires again at it.
func departFolded(arg any) {
	p := arg.(*Packet)
	l := p.Route[p.hop]
	l.sim.tally(p.Kind)
	fd := l.fold
	if fd.plain {
		l.handOff(p, 0)
		return
	}
	s, e := l.sim, &fd.eds[fd.edHead]
	if e.done.num == 0 {
		l.catchUp(s.now, s.seq)
		if fd.gone.at == s.now {
			e.done = l.goneKey()
		} else {
			e.done = l.keyOf(fd.head)
		}
	}
	if e.done.num > s.seq {
		if s.q.PendingBefore(s.now, e.done.num) {
			s.q.ScheduleArgSeq(s.now, e.done.num, departFolded, p)
			return
		}
		s.seq = e.done.num // nothing fires in between: this is its place
	}
	s.done = e.done
	s.log[len(s.log)-1].k = e.done
	jitter := e.jitter
	if fd.edHead++; fd.edHead == len(fd.eds) {
		fd.eds, fd.edHead = fd.eds[:0], 0
	} else if fd.edHead > 64 && fd.edHead*2 >= len(fd.eds) {
		fd.eds, fd.edHead = fd.eds[:copy(fd.eds, fd.eds[fd.edHead:])], 0
	}
	l.handOff(p, jitter)
}

// rate is the transmission rate under capacity step k.
func (l *Link) rate(k int) unit.Rate {
	if l.capSteps == nil {
		return l.Capacity
	}
	return l.capSteps[k].Rate
}

// stepAt returns the last capacity step at or before t, scanning on
// from step k.
func (l *Link) stepAt(t time.Duration, k int) int {
	for k+1 < len(l.capSteps) && l.capSteps[k+1].At <= t {
		k++
	}
	return k
}

// stepByDeparture is the step a transmission started at t by the
// departure of a packet sent under step prev is sent under. A step at
// t itself has fired first only if it was scheduled before that
// departure, that is, by the step the departing packet was sent under.
func (l *Link) stepByDeparture(t time.Duration, prev int) int {
	k := l.stepAt(t, prev)
	if k > 0 && l.capSteps[k].At == t && prev != k-1 {
		k--
	}
	return k
}

// depart counts one fed element's finished transmission.
func (l *Link) depart(size unit.Bytes) {
	l.forwarded++
	l.bytesServed += size
	l.sim.stats.Folded++
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

func (fd *folder) push(d departure) {
	fd.deps = append(fd.deps, d)
	fd.bytes += d.size
}

// retire counts the departures up to now, compacting the list as
// Link.pop does.
func (fd *folder) retire(l *Link, now time.Duration) {
	fd.retireThrough(l, now)
	if fd.plain {
		if fd.head == len(fd.deps) {
			fd.deps, fd.head = fd.deps[:0], 0
		} else if fd.head > 64 && fd.head*2 >= len(fd.deps) {
			fd.deps, fd.head = fd.deps[:copy(fd.deps, fd.deps[fd.head:])], 0
		}
		return
	}
	// Off the plain path the list keeps the busy period in service from
	// its start, which later numbering needs, unless that grows long.
	cut := fd.head
	if fd.head < len(fd.deps) && fd.deps[fd.head].waited {
		if fd.root > fd.head {
			return // the start of the busy period in service is further back
		}
		cut = fd.root
		if fd.head-cut > 4096 {
			cut = fd.head
			fd.goneKey = l.keyOf(fd.head - 1)
			fd.last = fd.goneKey
		}
	}
	if cut == 0 || cut < len(fd.deps) && (cut <= 64 || cut*2 < len(fd.deps)) {
		return
	}
	if fd.gone.at == now && cut == fd.head {
		// Only a tie at the last departure's instant can still ask for
		// its completion, or start a transmission with it.
		fd.goneKey = l.keyOf(fd.head - 1)
		fd.last = fd.goneKey
	}
	fd.deps = fd.deps[:copy(fd.deps, fd.deps[cut:])]
	fd.keys = fd.keys[:copy(fd.keys, fd.keys[cut:])]
	fd.head -= cut
	fd.root = max(fd.root-cut, 0)
}

// retireThrough counts the departures up to t, and the losses a batch
// left waiting for it.
func (fd *folder) retireThrough(l *Link, t time.Duration) {
	var bytes unit.Bytes
	var folded, batched uint64
	i := fd.head
	for ; i < len(fd.deps) && fd.deps[i].at <= t; i++ {
		d := &fd.deps[i]
		bytes += d.size
		if d.fed {
			folded++
		} else if d.batched {
			batched++
		}
	}
	if i > fd.head {
		if !fd.plain {
			fd.gone = fd.deps[i-1]
		}
		l.forwarded += int64(i - fd.head)
		l.bytesServed += bytes
		l.sim.stats.Folded += folded
		l.sim.stats.Batched += batched
		fd.head, fd.bytes = i, fd.bytes-bytes
	}
	for fd.lossHead < len(fd.losses) && fd.losses[fd.lossHead].at <= t {
		l.lost++
		l.lostBytes += fd.losses[fd.lossHead].size
		if fd.lossHead++; fd.lossHead == len(fd.losses) {
			fd.losses, fd.lossHead = fd.losses[:0], 0
		}
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
// list: after a catch-up its head is the packet in service, and the
// packets a batch admitted that have not reached the link by now come
// last.
func (fd *folder) queueLen(now time.Duration) int { return max(fd.arrived(now)-fd.head-1, 0) }

func (fd *folder) queuedBytes(now time.Duration) unit.Bytes {
	n := fd.arrived(now)
	if fd.head == n {
		return 0
	}
	b := fd.bytes - fd.deps[fd.head].size
	for _, d := range fd.deps[n:] {
		b -= d.size
	}
	return b
}

// arrived returns the end of the departure list's packets that have
// reached the link by now.
func (fd *folder) arrived(now time.Duration) int {
	n := len(fd.deps)
	if fd.ahead <= now {
		return n
	}
	for n > fd.head && fd.deps[n-1].arr > now {
		n--
	}
	return n
}
