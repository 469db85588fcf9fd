package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPoolClosed is returned by Get on a closed pool.
var ErrPoolClosed = errors.New("livenet: pool closed")

// Pool is N session slots to one receiver, leased to concurrent
// callers — the long-running monitor's shape. Each slot holds one
// Transport (single-stream, per core.Transport's contract): Get hands
// out one transport per caller and Put returns it, with unhealthy
// transports discarded and their slot redialed on the next Get.
type Pool struct {
	addr string

	mu    sync.Mutex
	slots []*Transport       // current transport per slot; nil = vacant
	idx   map[*Transport]int // leased-or-pooled transport -> slot

	free      chan int // slot indices available to Get
	closed    chan struct{}
	closeOnce sync.Once
}

// DialPool dials n transports to a receiver's control address. On any
// dial failure (including the receiver's session limit) the already
// dialed transports are closed and the cause is returned.
func DialPool(addr string, n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("livenet: pool size %d must be positive", n)
	}
	p := &Pool{
		addr:   addr,
		slots:  make([]*Transport, n),
		idx:    make(map[*Transport]int, n),
		free:   make(chan int, n),
		closed: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		tr, err := Dial(addr)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("livenet: pool dial %d of %d: %w", i+1, n, err)
		}
		p.slots[i] = tr
		p.idx[tr] = i
		p.free <- i
	}
	return p, nil
}

// Get leases a transport, blocking until a slot is free, the context
// is done, or the pool closes. A vacant slot (its previous transport
// was discarded as unhealthy) is redialed here, so one broken session
// costs one redial, not a rebuilt pool. The caller must return the
// transport with Put.
func (p *Pool) Get(ctx context.Context) (*Transport, error) {
	for {
		var i int
		select {
		case i = <-p.free:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.closed:
			return nil, ErrPoolClosed
		}
		// The select chooses randomly among ready cases, so a free slot
		// can win the race against a concurrent Close; closed wins here.
		select {
		case <-p.closed:
			return nil, ErrPoolClosed
		default:
		}
		p.mu.Lock()
		tr := p.slots[i]
		p.mu.Unlock()
		if tr != nil {
			return tr, nil
		}
		tr, err := Dial(p.addr) // outside the lock: dials are slow
		if err != nil {
			p.free <- i // the slot stays vacant for the next Get to retry
			return nil, fmt.Errorf("livenet: pool redial slot %d: %w", i, err)
		}
		p.mu.Lock()
		select {
		case <-p.closed:
			p.mu.Unlock()
			tr.Close()
			return nil, ErrPoolClosed
		default:
		}
		p.slots[i] = tr
		p.idx[tr] = i
		p.mu.Unlock()
		return tr, nil
	}
}

// Put returns a leased transport. healthy=false discards it — closing
// the sockets so the receiver reaps the session — and leaves the slot
// vacant for Get to redial. Putting a transport the pool does not own
// is a no-op.
func (p *Pool) Put(tr *Transport, healthy bool) {
	if tr == nil {
		return
	}
	p.mu.Lock()
	i, ok := p.idx[tr]
	if !ok {
		p.mu.Unlock()
		return
	}
	// A transport whose control channel desynchronized mid-run can never
	// probe again; treat it as unhealthy whatever the caller thinks.
	if tr.broken {
		healthy = false
	}
	if !healthy {
		delete(p.idx, tr)
		p.slots[i] = nil
	}
	p.mu.Unlock()
	if !healthy {
		tr.Close()
	}
	p.free <- i
}

// Close closes every transport — leased ones included, which is what
// unblocks a caller stuck inside a socket read — and fails all future
// Gets. It is idempotent and safe to call concurrently.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.mu.Lock()
		trs := make([]*Transport, 0, len(p.slots))
		for _, tr := range p.slots {
			if tr != nil {
				trs = append(trs, tr)
			}
		}
		p.mu.Unlock()
		for _, tr := range trs {
			tr.Close()
		}
	})
}
