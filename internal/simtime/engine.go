package simtime

import (
	"errors"
	"math"
)

// Event is a cancel handle for a scheduled callback, owned by the caller
// and reusable: Arm schedules a callback under it, and arming it again
// supersedes the schedule it held, as if that had been cancelled. Events
// scheduled with At or After have no handle and cannot be cancelled,
// which is what keeps them allocation-free. The zero value is ready.
type Event struct {
	seq       uint64 // sequence number of the schedule it holds
	cancelled bool
}

// Cancel stops the handle's pending schedule from firing; the engine skips
// it when popped. Cancelling a schedule that already fired is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether the handle's last schedule was cancelled
// before it fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// queued is one event-queue slot: the (time, seq) key sits inline beside
// the callback, so ordering two slots never dereferences anything. ev is
// the cancel handle of an armed schedule and nil for every other.
type queued struct {
	at  VTime
	seq uint64
	fn  func()
	ev  *Event
}

func (a queued) before(b queued) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// dead reports whether the slot's schedule was cancelled or superseded by
// a later Arm of its handle.
func (a *queued) dead() bool {
	return a.ev != nil && (a.ev.cancelled || a.ev.seq != a.seq)
}

// eventQueue is a binary min-heap of slots in (time, seq) order. Sequence
// numbers are unique, so the order is total and every correct heap pops
// the same sequence.
type eventQueue []queued

// push adds a slot, sifting it up from the end.
func (q *eventQueue) push(x queued) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest slot; the queue must be non-empty.
// The last slot moves into the root's hole and sifts down.
func (q *eventQueue) pop() queued {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = queued{} // drop the callback and handle for the GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// ErrPastEvent is returned when scheduling before the current virtual time.
var ErrPastEvent = errors.New("simtime: cannot schedule event in the past")

// Engine is the discrete-event simulation driver. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	clock   *Clock
	queue   eventQueue
	nextSeq uint64
	fired   uint64
	horizon VTime // exclusive end of simulation; events at/after it never run
}

// NewEngine creates an engine starting at virtual time start and running
// until the horizon (exclusive). A zero horizon means "no horizon" (the
// engine runs until the queue drains).
func NewEngine(start, horizon VTime) *Engine {
	if horizon == 0 {
		horizon = VTime(math.MaxInt64)
	}
	return &Engine{clock: NewClock(start), horizon: horizon}
}

// Now reports the current virtual time.
func (e *Engine) Now() VTime { return e.clock.Now() }

// Horizon reports the exclusive simulation end time.
func (e *Engine) Horizon() VTime { return e.horizon }

// Pending reports the number of events waiting in the queue, including
// cancelled and superseded ones not yet reaped.
func (e *Engine) Pending() int { return len(e.queue) }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is an error.
func (e *Engine) At(t VTime, fn func()) error {
	return e.schedule(t, fn, nil)
}

// After schedules fn to run d seconds from now. Negative delays clamp to 0
// (run at the current instant, after already-queued same-instant events).
func (e *Engine) After(d VTime, fn func()) {
	_ = e.schedule(e.clock.Now()+max(d, 0), fn, nil) // never in the past
}

// Arm is At under the cancel handle ev: ev.Cancel stops fn from firing,
// and arming ev again supersedes this schedule. Like every schedule it
// takes one sequence number, so arming orders exactly as At would.
func (e *Engine) Arm(ev *Event, t VTime, fn func()) error {
	return e.schedule(t, fn, ev)
}

func (e *Engine) schedule(t VTime, fn func(), ev *Event) error {
	if t < e.clock.Now() {
		return ErrPastEvent
	}
	if ev != nil {
		ev.seq, ev.cancelled = e.nextSeq, false
	}
	e.queue.push(queued{at: t, seq: e.nextSeq, fn: fn, ev: ev})
	e.nextSeq++
	return nil
}

// Step fires the single earliest pending event. It returns false when the
// queue is empty or the next event lies at/after the horizon (in which case
// the clock advances to the horizon). Cancelled and superseded events are
// dropped as they reach the head.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		s := e.queue.pop()
		if s.dead() {
			continue
		}
		if s.at >= e.horizon {
			e.clock.advance(e.horizon)
			return false
		}
		e.clock.advance(s.at)
		e.fired++
		s.fn()
		return true
	}
	return false
}

// Run drives the simulation until the queue drains or the horizon is
// reached, returning the number of events fired.
func (e *Engine) Run() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// RunUntil drives the simulation until the given virtual time (exclusive);
// events scheduled at or after t remain queued. The clock ends at min(t,
// next-event-time, horizon) — i.e. it does not jump past t.
func (e *Engine) RunUntil(t VTime) {
	if t > e.horizon {
		t = e.horizon
	}
	for len(e.queue) > 0 {
		head := &e.queue[0]
		if head.dead() {
			e.queue.pop()
			continue
		}
		if head.at >= t {
			break
		}
		e.Step()
	}
	if e.clock.Now() < t {
		e.clock.advance(t)
	}
}
