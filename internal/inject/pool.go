package inject

import (
	"runtime"
	"sync"

	"fastflip/internal/trace"
	"fastflip/internal/vm"
)

// Pool is a fixed set of worker slots that campaigns share. An analysis
// creates one and hands it to every section campaign it runs, so the
// campaigns of two sections in flight at once fill each other's idle
// slots. A campaign still cuts its dyn-sorted schedule into the same
// static chunks (one per Injector worker, each with its own replay-seed
// cursor), so sharing a pool changes when a chunk runs, never what it
// computes. Chunks wait for a slot earliest section instance first (by
// the instance's entry dyn), then first in, first out: an earlier
// section's chunks go before a later one's, however the two campaigns'
// goroutines were scheduled. Each slot owns an engine — the clean
// cursor, the fork machine and the lockstep batch — that is re-seeded per
// chunk instead of allocated.
//
// A campaign on an Injector without a Pool runs on a private pool of
// Injector.Workers slots. A monolithic campaign ranks before every
// section.
type Pool struct {
	mu       sync.Mutex
	idle     []*engine
	queue    []chunkTask // sorted by rank, first in, first out within one
	reserved []uint64    // ranks of campaigns yet to submit (Reserve)
}

// chunkTask is one submitted chunk: its work, its campaign's rank and
// the campaign's join.
type chunkTask struct {
	run  func(*engine)
	rank uint64
	done *sync.WaitGroup
}

// engine is the reusable replay state of one pool slot.
type engine struct {
	cur, em *vm.Machine // clean cursor and experiment fork; nil until first use
	batch   *vm.Batch
}

// NewPool returns a pool of the given number of slots; 0 or less means
// GOMAXPROCS.
func NewPool(slots int) *Pool {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	p := &Pool{idle: make([]*engine, slots)}
	for i := range p.idle {
		p.idle[i] = &engine{batch: new(vm.Batch)}
	}
	return p
}

// seed positions both machines of e at the replay seed, reusing their
// memory when they already exist.
func (e *engine) seed(seed *vm.Machine) {
	if e.cur == nil {
		e.cur, e.em = seed.Clone(), seed.Clone()
		return
	}
	e.cur.RestoreFrom(seed)
	e.em.RestoreFrom(seed)
}

// Reserve holds a place for the campaign of section instance inst before
// it has submitted its chunks: until it does, or Release drops the place,
// no chunk of a later section starts. An analysis reserves each section's
// place before starting its campaign, so a later section's chunks cannot
// take a slot first just because its goroutine ran first.
func (p *Pool) Reserve(inst *trace.Instance) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserved = append(p.reserved, sectionRank(inst))
}

// Release drops inst's place if its campaign never submitted chunks (it
// ran remotely, resolved everything by elision, or was cancelled first).
func (p *Pool) Release(inst *trace.Instance) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unreserve(sectionRank(inst))
	p.dispatch()
}

// sectionRank orders section campaigns in a pool: by the instance's
// entry dyn, so earlier sections go first.
func sectionRank(inst *trace.Instance) uint64 { return inst.BegDyn }

// unreserve drops one reservation of rank; p.mu must be held.
func (p *Pool) unreserve(rank uint64) {
	for i, r := range p.reserved {
		if r == rank {
			p.reserved = append(p.reserved[:i], p.reserved[i+1:]...)
			return
		}
	}
}

// run queues tasks behind every queued task of a lower or equal rank,
// taking over rank's reservation, and returns once all of them have
// finished. Each task runs on one slot's engine.
func (p *Pool) run(rank uint64, tasks []func(*engine)) {
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	p.mu.Lock()
	at := len(p.queue)
	for at > 0 && p.queue[at-1].rank > rank {
		at--
	}
	queued := make([]chunkTask, len(tasks))
	for i, t := range tasks {
		queued[i] = chunkTask{t, rank, &wg}
	}
	p.queue = append(p.queue[:at], append(queued, p.queue[at:]...)...)
	p.unreserve(rank)
	p.dispatch()
	p.mu.Unlock()
	wg.Wait()
}

// ready reports whether the head of the queue may start: no campaign of
// a lower rank still holds a reservation. p.mu must be held.
func (p *Pool) ready() bool {
	if len(p.queue) == 0 {
		return false
	}
	for _, r := range p.reserved {
		if r < p.queue[0].rank {
			return false
		}
	}
	return true
}

// dispatch starts ready tasks on idle slots; p.mu must be held.
func (p *Pool) dispatch() {
	for len(p.idle) > 0 && p.ready() {
		e := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		go p.serve(e, p.next())
	}
}

// next pops the head of the queue; p.mu must be held.
func (p *Pool) next() chunkTask {
	t := p.queue[0]
	p.queue[0] = chunkTask{}
	p.queue = p.queue[1:]
	return t
}

// serve runs t on the slot e, then keeps the slot busy with ready tasks
// until there is none and the slot goes idle.
func (p *Pool) serve(e *engine, t chunkTask) {
	for {
		t.run(e)
		t.done.Done()
		p.mu.Lock()
		if !p.ready() {
			p.idle = append(p.idle, e)
			p.mu.Unlock()
			return
		}
		t = p.next()
		p.mu.Unlock()
	}
}
