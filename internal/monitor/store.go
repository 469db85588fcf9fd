package monitor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"abw/internal/unit"
)

// Point is one completed (or failed) estimation run in a series. A
// failed run keeps its slot in the ring — gaps are information: a
// series that alternates estimates with budget refusals tells the
// operator the fleet cap is the binding constraint, which a
// success-only series would hide.
type Point struct {
	// At is the run's dispatch time on the monitor's clock.
	At time.Time `json:"at"`
	// Seq numbers the runs of this series from 0, including failed and
	// refused ones, so consumers can detect evicted history.
	Seq uint64 `json:"seq"`
	// Point, Low, High are the estimate and its variation range
	// (Low = High for point-estimate tools); zero when Err is set.
	Point unit.Rate `json:"point_bps"`
	Low   unit.Rate `json:"low_bps"`
	High  unit.Rate `json:"high_bps"`
	// True is the scenario's analytic ground truth for sim targets;
	// zero for live targets, which have no oracle.
	True unit.Rate `json:"true_bps,omitempty"`
	// Streams, Packets, ProbeBytes are the run's measured probing cost.
	Streams    int        `json:"streams,omitempty"`
	Packets    int        `json:"packets,omitempty"`
	ProbeBytes unit.Bytes `json:"probe_bytes,omitempty"`
	// Elapsed is the estimation latency on the run's transport clock
	// (virtual time for sim targets).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Err is the run's failure text (estimation error, admission
	// refusal); empty on success.
	Err string `json:"error,omitempty"`
}

// Rollup summarizes one series' buffered points: the min/mean/max of
// the successful estimates, and the variation range — the lowest Low to
// the highest High any run reported, the paper's "avail-bw is a process
// with a variation range, not a number" rendered as an operator-facing
// aggregate.
type Rollup struct {
	Count  int `json:"count"`  // points buffered, including failures
	Errors int `json:"errors"` // points that carry an error
	// Min, Mean, Max aggregate the successful estimates' Point values.
	Min  unit.Rate `json:"min_bps"`
	Mean unit.Rate `json:"mean_bps"`
	Max  unit.Rate `json:"max_bps"`
	// VarLow and VarHigh bound the union of the runs' variation ranges.
	VarLow  unit.Rate `json:"var_low_bps"`
	VarHigh unit.Rate `json:"var_high_bps"`
	// Last is the most recent successful estimate and LastAt its time.
	Last   unit.Rate `json:"last_bps"`
	LastAt time.Time `json:"last_at"`
}

// Series is the append-only history of one (target, tool): a
// fixed-capacity ring buffer of Points. Appending past capacity evicts
// the oldest point; Evicted counts what the window lost. All methods
// are safe for concurrent use.
type Series struct {
	// Target, Tool, Tenant identify the series; set once at creation.
	Target string `json:"target"`
	Tool   string `json:"tool"`
	Tenant string `json:"tenant"`

	mu      sync.Mutex
	buf     []Point // ring storage, len == capacity once full
	head    int     // index of the oldest point
	seq     uint64  // next Seq to assign
	evicted uint64
}

func newSeries(target, tool, tenant string, capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{Target: target, Tool: tool, Tenant: tenant, buf: make([]Point, 0, capacity)}
}

// Append stamps the point with the next sequence number and stores it,
// evicting the oldest point if the ring is full.
func (s *Series) Append(p Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.Seq = s.seq
	s.seq++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, p)
		return
	}
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
	s.evicted++
}

// Last returns up to n most recent points, oldest first. n <= 0 means
// all buffered points.
func (s *Series) Last(n int) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := len(s.buf)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Point, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, s.buf[(s.head+i)%total])
	}
	return out
}

// Len reports the points currently buffered.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Evicted reports how many points the ring has dropped to stay within
// capacity (compaction drops are counted too).
func (s *Series) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Rollup computes the series' summary over the buffered window.
func (s *Series) Rollup() Rollup {
	s.mu.Lock()
	defer s.mu.Unlock()
	var r Rollup
	var sum float64
	ok := 0
	for i := 0; i < len(s.buf); i++ {
		p := s.buf[(s.head+i)%len(s.buf)]
		r.Count++
		if p.Err != "" {
			r.Errors++
			continue
		}
		if ok == 0 {
			r.Min, r.Max = p.Point, p.Point
			r.VarLow, r.VarHigh = p.Low, p.High
		} else {
			if p.Point < r.Min {
				r.Min = p.Point
			}
			if p.Point > r.Max {
				r.Max = p.Point
			}
			if p.Low < r.VarLow {
				r.VarLow = p.Low
			}
			if p.High > r.VarHigh {
				r.VarHigh = p.High
			}
		}
		sum += float64(p.Point)
		ok++
		r.Last, r.LastAt = p.Point, p.At
	}
	if ok > 0 {
		r.Mean = unit.Rate(sum / float64(ok))
	}
	return r
}

// compact drops buffered points older than cutoff; it reports how many
// were dropped and how many remain. Dropped points count as evicted.
func (s *Series) compact(cutoff time.Time) (dropped, kept int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make([]Point, 0, cap(s.buf))
	for i := 0; i < len(s.buf); i++ {
		p := s.buf[(s.head+i)%len(s.buf)]
		if p.At.Before(cutoff) {
			dropped++
			continue
		}
		keep = append(keep, p)
	}
	s.buf, s.head = keep, 0
	s.evicted += uint64(dropped)
	return dropped, len(keep)
}

// Store holds every series the monitor maintains, keyed by
// (target, tool). It is the append-only time-series layer: runs append
// Points, the HTTP layer reads series and rollups, snapshots persist
// the window to disk, and compaction trims it. All methods are safe for
// concurrent use.
type Store struct {
	capacity int

	mu     sync.RWMutex
	series map[string]*Series
	order  []string // creation order, for stable listings

	appends atomic.Uint64
}

// NewStore returns a store whose series each buffer up to capacity
// points (default 512).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 512
	}
	return &Store{capacity: capacity, series: make(map[string]*Series)}
}

// Series returns the series for (target, tool), creating it on first
// use.
func (st *Store) Series(target, tool, tenant string) *Series {
	return st.seriesAt(target+"/"+tool, target, tool, tenant)
}

// seriesAt is Series with the "target/tool" key already built.
func (st *Store) seriesAt(key, target, tool, tenant string) *Series {
	st.mu.RLock()
	s := st.series[key]
	st.mu.RUnlock()
	if s != nil {
		return s
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s = st.series[key]; s == nil {
		s = newSeries(target, tool, tenant, st.capacity)
		st.series[key] = s
		st.order = append(st.order, key)
	}
	return s
}

// Lookup finds an existing series by its "target/tool" key.
func (st *Store) Lookup(key string) (*Series, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[key]
	return s, ok
}

// All returns every series in creation order.
func (st *Store) All() []*Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Series, 0, len(st.order))
	for _, key := range st.order {
		out = append(out, st.series[key])
	}
	return out
}

// Append records one run into its series.
func (st *Store) Append(target, tool, tenant string, p Point) {
	st.appendAt(target+"/"+tool, target, tool, tenant, p)
}

// appendAt is Append with the "target/tool" key already built, as the
// monitor's entries hold it.
func (st *Store) appendAt(key, target, tool, tenant string, p Point) {
	st.seriesAt(key, target, tool, tenant).Append(p)
	st.appends.Add(1)
}

// Appends reports the lifetime number of points appended.
func (st *Store) Appends() uint64 { return st.appends.Load() }

// Compact drops every buffered point older than cutoff and removes
// series left empty, returning (points dropped, series removed). The
// lifetime counters survive; only window contents are trimmed.
func (st *Store) Compact(cutoff time.Time) (points, removed int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	keepOrder := st.order[:0]
	for _, key := range st.order {
		s := st.series[key]
		dropped, kept := s.compact(cutoff)
		points += dropped
		if kept == 0 && dropped > 0 {
			delete(st.series, key)
			removed++
			continue
		}
		keepOrder = append(keepOrder, key)
	}
	st.order = keepOrder
	return points, removed
}

// Snapshot is the on-disk shape of the store: every series' buffered
// window plus its rollup, so a snapshot file is directly consumable by
// humans and dashboards without replaying points.
type Snapshot struct {
	Schema  string           `json:"schema"`
	TakenAt time.Time        `json:"taken_at"`
	Series  []SnapshotSeries `json:"series"`
}

// SnapshotSeries is one series in a snapshot.
type SnapshotSeries struct {
	Target  string  `json:"target"`
	Tool    string  `json:"tool"`
	Tenant  string  `json:"tenant"`
	Evicted uint64  `json:"evicted,omitempty"`
	Rollup  Rollup  `json:"rollup"`
	Points  []Point `json:"points"`
}

// snapshotSchema versions the snapshot file format.
const snapshotSchema = "abw-monitor-snapshot/1"

// Snapshot captures the store's current window.
func (st *Store) Snapshot(at time.Time) Snapshot {
	snap := Snapshot{Schema: snapshotSchema, TakenAt: at}
	for _, s := range st.All() {
		s.mu.Lock()
		ev := s.evicted
		s.mu.Unlock()
		snap.Series = append(snap.Series, SnapshotSeries{
			Target:  s.Target,
			Tool:    s.Tool,
			Tenant:  s.Tenant,
			Evicted: ev,
			Rollup:  s.Rollup(),
			Points:  s.Last(0),
		})
	}
	sort.Slice(snap.Series, func(i, j int) bool {
		a, b := snap.Series[i], snap.Series[j]
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Tool < b.Tool
	})
	return snap
}

// WriteSnapshot atomically persists the store's window to path
// (write to a temp file in the same directory, then rename).
func (st *Store) WriteSnapshot(path string, at time.Time) error {
	b, err := json.MarshalIndent(st.Snapshot(at), "", "  ")
	if err != nil {
		return fmt.Errorf("monitor: snapshot encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".abwmonitor-snap-*")
	if err != nil {
		return fmt.Errorf("monitor: snapshot: %w", err)
	}
	_, werr := tmp.Write(append(b, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: snapshot write: %w", firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("monitor: snapshot rename: %w", err)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot reads a snapshot file written by WriteSnapshot.
func LoadSnapshot(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("monitor: snapshot %s: %w", path, err)
	}
	if snap.Schema != snapshotSchema {
		return Snapshot{}, fmt.Errorf("monitor: snapshot %s: schema %q, want %q", path, snap.Schema, snapshotSchema)
	}
	return snap, nil
}

// Restore seeds the store from a snapshot, so a restarted monitor
// presents continuous history: each series keeps the snapshot's points
// (the newest ones, if the snapshot exceeds the store's capacity) and
// continues its sequence numbering where the snapshot left off.
func (st *Store) Restore(snap Snapshot) {
	for _, ss := range snap.Series {
		s := st.Series(ss.Target, ss.Tool, ss.Tenant)
		s.mu.Lock()
		pts := ss.Points
		if len(pts) > cap(s.buf) {
			pts = pts[len(pts)-cap(s.buf):]
		}
		s.buf = append(s.buf[:0], pts...)
		s.head = 0
		s.evicted = ss.Evicted + uint64(len(ss.Points)-len(pts))
		s.seq = 0
		for _, p := range pts {
			if p.Seq+1 > s.seq {
				s.seq = p.Seq + 1
			}
		}
		s.mu.Unlock()
	}
}
