package sim

import (
	"fmt"
	"math"
	"time"

	"abw/internal/rng"
	"abw/internal/unit"
)

// Discipline is a pluggable queue policy for a Link — the active queue
// management layer of the issue's "Internet-realistic" link model. The
// link still serves packets in FIFO order; a discipline decides which
// packets are dropped instead of queued (Admit, RED-style early drop)
// or dropped instead of transmitted (Dequeue, CoDel-style head drop).
//
// A nil discipline is plain FIFO tail-drop, served by the link's
// branch-free fast path: installing no discipline keeps steady-state
// forwarding at 0 allocs/op exactly as before.
type Discipline interface {
	// Name identifies the policy in diagnostics ("red", "codel").
	Name() string
	// Admit is consulted once per arrival, after the link's loss model
	// and before the buffer bound; returning false drops the packet on
	// arrival (an AQM early drop, counted in Link.Dropped).
	Admit(l *Link, p *Packet) bool
	// Dequeue is consulted when p is pulled from the queue for
	// transmission; returning false drops it instead (a head drop,
	// counted in Link.Dropped) and the link tries the next packet.
	Dequeue(l *Link, p *Packet) bool
}

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson
// 1993): an EWMA of the queue length in packets, linear drop
// probability between the thresholds, forced drop above MaxTh, and the
// standard count-based uniformization of drop spacing.
type REDConfig struct {
	// MinTh and MaxTh are the EWMA queue-length thresholds in packets
	// (defaults 5 and 15).
	MinTh, MaxTh int
	// MaxP is the drop probability as the average reaches MaxTh
	// (default 0.1).
	MaxP float64
	// Weight is the EWMA weight per arrival (default 0.002).
	Weight float64
	// MeanPktSize calibrates the idle-time decay of the average: an
	// idle link "transmits" virtual packets of this size (default 1500).
	MeanPktSize unit.Bytes
}

func (c REDConfig) withDefaults() REDConfig {
	if c.MinTh == 0 {
		c.MinTh = 5
	}
	if c.MaxTh == 0 {
		c.MaxTh = 15
	}
	if c.MaxP == 0 {
		c.MaxP = 0.1
	}
	if c.Weight == 0 {
		c.Weight = 0.002
	}
	if c.MeanPktSize == 0 {
		c.MeanPktSize = 1500
	}
	return c
}

// RED is the classic probabilistic early-drop AQM. All randomness
// comes from the generator handed to NewRED, so runs are exactly
// reproducible.
type RED struct {
	cfg REDConfig
	r   *rng.Rand

	avg   float64 // EWMA of the queue length in packets
	count int     // packets since the last drop (−1 = below MinTh)
}

// NewRED returns a RED discipline. It panics on a malformed config
// (thresholds out of order, probabilities outside (0, 1]): disciplines
// are constructed from compile-time constants or validated specs.
func NewRED(cfg REDConfig, r *rng.Rand) *RED {
	cfg = cfg.withDefaults()
	if cfg.MinTh < 1 || cfg.MaxTh <= cfg.MinTh {
		panic(fmt.Sprintf("sim: RED thresholds min=%d max=%d must satisfy 1 <= min < max", cfg.MinTh, cfg.MaxTh))
	}
	if cfg.MaxP <= 0 || cfg.MaxP > 1 {
		panic(fmt.Sprintf("sim: RED max_p %g outside (0, 1]", cfg.MaxP))
	}
	if cfg.Weight <= 0 || cfg.Weight > 1 {
		panic(fmt.Sprintf("sim: RED weight %g outside (0, 1]", cfg.Weight))
	}
	if r == nil {
		panic("sim: RED needs a random source")
	}
	return &RED{cfg: cfg, r: r, count: -1}
}

// Name implements Discipline.
func (q *RED) Name() string { return "red" }

// AvgQueue returns the current EWMA queue length, for tests.
func (q *RED) AvgQueue() float64 { return q.avg }

// Admit implements Discipline: update the average, then drop with the
// uniformized probability when the average sits between the thresholds.
func (q *RED) Admit(l *Link, p *Packet) bool {
	qlen := l.QueueLen()
	if l.busy {
		qlen++
	}
	if qlen == 0 {
		// Idle decay: the average ages as if the link had transmitted
		// m average-size packets during the idle period.
		idle := l.sim.now - l.idleSince
		if idle > 0 {
			m := float64(idle) / float64(unit.TxTime(q.cfg.MeanPktSize, l.Capacity))
			q.avg *= math.Pow(1-q.cfg.Weight, m)
		}
	} else {
		q.avg = (1-q.cfg.Weight)*q.avg + q.cfg.Weight*float64(qlen)
	}
	switch {
	case q.avg < float64(q.cfg.MinTh):
		q.count = -1
		return true
	case q.avg >= float64(q.cfg.MaxTh):
		q.count = 0
		return false
	}
	q.count++
	pb := q.cfg.MaxP * (q.avg - float64(q.cfg.MinTh)) / float64(q.cfg.MaxTh-q.cfg.MinTh)
	pa := pb / (1 - float64(q.count)*pb)
	if pa < 0 || pa >= 1 {
		pa = 1
	}
	if q.r.Float64() < pa {
		q.count = 0
		return false
	}
	return true
}

// Dequeue implements Discipline: RED never drops at the head.
func (q *RED) Dequeue(*Link, *Packet) bool { return true }

// CoDelConfig parameterizes Controlled Delay AQM (Nichols & Jacobson
// 2012): drop from the head when packet sojourn time has exceeded
// Target for at least one Interval, then tighten drop spacing by the
// inverse-sqrt control law.
type CoDelConfig struct {
	// Target is the acceptable standing queue delay (default 5 ms).
	Target time.Duration
	// Interval is the sliding window over which the minimum sojourn
	// must exceed Target before dropping starts (default 100 ms).
	Interval time.Duration
}

func (c CoDelConfig) withDefaults() CoDelConfig {
	if c.Target == 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Interval == 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// CoDel is the sojourn-time head-drop AQM. It needs no randomness:
// the control law is fully deterministic.
type CoDel struct {
	cfg CoDelConfig

	firstAbove time.Duration // when sojourn first stayed above target (0 = not above)
	dropNext   time.Duration // next scheduled drop while in dropping state
	count      int           // drops in the current dropping state
	dropping   bool
}

// NewCoDel returns a CoDel discipline. It panics on non-positive
// target or interval.
func NewCoDel(cfg CoDelConfig) *CoDel {
	cfg = cfg.withDefaults()
	if cfg.Target <= 0 || cfg.Interval <= 0 {
		panic(fmt.Sprintf("sim: CoDel target %v / interval %v must be positive", cfg.Target, cfg.Interval))
	}
	return &CoDel{cfg: cfg}
}

// Name implements Discipline.
func (q *CoDel) Name() string { return "codel" }

// Admit implements Discipline: CoDel admits everything (the buffer
// bound still applies) and acts at dequeue time.
func (q *CoDel) Admit(*Link, *Packet) bool { return true }

// okToDrop updates the above-target tracking for one dequeued packet
// and reports whether the standing-queue condition currently holds.
func (q *CoDel) okToDrop(l *Link, p *Packet, now time.Duration) bool {
	sojourn := now - p.enqAt
	if sojourn < q.cfg.Target || l.queuedBytes <= 1500 {
		q.firstAbove = 0
		return false
	}
	if q.firstAbove == 0 {
		q.firstAbove = now + q.cfg.Interval
		return false
	}
	return now >= q.firstAbove
}

// controlLaw returns the next drop time: Interval/sqrt(count) after t.
func (q *CoDel) controlLaw(t time.Duration) time.Duration {
	return t + time.Duration(float64(q.cfg.Interval)/math.Sqrt(float64(q.count)))
}

// Dequeue implements Discipline with the reference CoDel state
// machine: enter the dropping state after a full interval above
// target, drop with inverse-sqrt spacing while it persists, leave as
// soon as the sojourn time recovers.
func (q *CoDel) Dequeue(l *Link, p *Packet) bool {
	now := l.sim.now
	ok := q.okToDrop(l, p, now)
	if q.dropping {
		if !ok {
			q.dropping = false
			return true
		}
		if now >= q.dropNext {
			q.count++
			q.dropNext = q.controlLaw(q.dropNext)
			return false
		}
		return true
	}
	if ok {
		q.dropping = true
		// Re-entering shortly after the last dropping state resumes
		// near the previous drop rate instead of starting over.
		if now-q.dropNext < q.cfg.Interval && q.count > 2 {
			q.count -= 2
		} else {
			q.count = 1
		}
		q.dropNext = q.controlLaw(now)
		return false
	}
	return true
}
