package simtime

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// FuzzEngineOrder drives the Engine and a reference scheduler through the
// same operation sequence decoded from the input and requires identical
// traces: which events fire and in what order, the clock, the pending and
// fired counts, and every return value. The reference is a plain slice in
// scheduling order, stable-sorted by time before each removal and drained
// from the front; it skips cancelled events and stops at the horizon,
// which is the engine's (time, seq) contract stated directly.
//
// A schedule is of one of the engine's two kinds: handle-less, through
// After or At, or armed, through Arm under a handle of its own that can
// later be cancelled or armed again. Re-arming supersedes the schedule
// the handle held; the reference mirrors it as a cancel of that schedule
// plus a new schedule of the same callback.
//
// Input layout: byte 0 picks the horizon (b%64, 0 = none); then each pair
// (op, arg) is one operation, op%8 selecting it and op/8 parameterizing
// the callback of a scheduled event. A scheduled event is armed when arg
// is below 128 and handle-less otherwise.
//
//	0-2  After(delays[arg%8])          3  cancel the arg-th pending armed
//	4    RunUntil(now + arg%16)           event (op/8 even), or re-arm the
//	5    Step                             arg-th armed event at
//	6    Run                              now-1+delays[op/16%8] (op/8 odd)
//	7    At(arg%32), possibly in the past
//
// A callback's parameter p selects what it does when it fires, with k =
// p/4: p%4 = 0 nothing, 1 schedule a child After(delays[k]), 2 cancel the
// (k/2)-th pending armed event (k even) or re-arm the (k/2)-th armed event
// at now+delays[k] (k odd, on the callback's first run only, so re-arming
// callbacks cannot fire each other forever), 3 schedule a child At(now -
// k%2) (in the past when odd). A child is of its parent's kind. Re-arming
// picks among every armed event, so it also re-arms handles whose schedule
// fired (a callback re-arming its own handle) or was cancelled.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var horizon VTime
		if len(data) > 0 {
			horizon = VTime(data[0] % 64)
		}
		got := playEngineOps(data, engineUnderTest{NewEngine(0, horizon)})
		want := playEngineOps(data, newRefScheduler(horizon))
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("trace diverges at entry %d: engine %q, reference %q", i, got[i], want[i])
				}
			}
			t.Fatalf("trace lengths differ: engine %d entries, reference %d", len(got), len(want))
		}
	})
}

// delayPool is tie-heavy on purpose: most schedules collide on an instant,
// so same-instant FIFO order decides most of the trace.
var delayPool = [8]VTime{0, 0, 1, 1, 2, 3, 5, 8}

// scheduler is the surface FuzzEngineOrder drives.
type scheduler interface {
	after(d VTime, fn func())
	at(t VTime, fn func()) error
	arm(t VTime, fn func()) (handle, error)
	step() bool
	run() uint64
	runUntil(t VTime)
	now() VTime
	pending() int
	fired() uint64
}

// handle is the cancel handle of an armed schedule.
type handle interface {
	cancel()
	rearm(t VTime) error // the same callback at t, superseding the schedule held
}

// playEngineOps runs the decoded program against s and returns its trace.
func playEngineOps(data []byte, s scheduler) []string {
	var trace []string
	var handles []handle // by event id; nil for a handle-less event
	var armed []int      // ids of armed events, in id order
	var live []int       // armed ids pending: not fired or cancelled, in id order
	drop := func(id int) {
		if i, ok := slices.BinarySearch(live, id); ok {
			live = slices.Delete(live, i, i+1)
		}
	}
	cancelPending := func(k int) {
		if len(live) == 0 {
			return
		}
		id := live[k%len(live)]
		handles[id].cancel()
		drop(id)
		trace = append(trace, fmt.Sprintf("cancel %d", id))
	}
	rearm := func(k int, t VTime) {
		if len(armed) == 0 {
			return
		}
		id := armed[k%len(armed)]
		if err := handles[id].rearm(t); err != nil {
			trace = append(trace, fmt.Sprintf("rearm %d at %d: %v", id, t, err))
			return
		}
		if i, ok := slices.BinarySearch(live, id); !ok {
			live = slices.Insert(live, i, id)
		}
		trace = append(trace, fmt.Sprintf("rearm %d at %d", id, t))
	}
	var schedule func(t VTime, relative, withHandle bool, p int)
	schedule = func(t VTime, relative, withHandle bool, p int) {
		id, reran := len(handles), false
		fn := func() {
			drop(id)
			trace = append(trace, fmt.Sprintf("fire %d at %d", id, s.now()))
			switch k := p / 4; p % 4 {
			case 1:
				schedule(delayPool[k%len(delayPool)], true, withHandle, 0)
			case 2:
				if k%2 == 0 {
					cancelPending(k / 2)
				} else if !reran {
					rearm(k/2, s.now()+delayPool[k%len(delayPool)])
				}
				reran = true
			case 3:
				schedule(s.now()-VTime(k%2), false, withHandle, 0)
			}
		}
		var h handle
		var err error
		switch {
		case withHandle && relative:
			h, err = s.arm(s.now()+t, fn) // delays are non-negative
		case withHandle:
			h, err = s.arm(t, fn)
		case relative:
			s.after(t, fn)
		default:
			err = s.at(t, fn)
		}
		if err != nil {
			trace = append(trace, fmt.Sprintf("at %d: %v", t, err))
			return
		}
		handles = append(handles, h)
		if withHandle {
			armed = append(armed, id)
			live = append(live, id)
		}
	}
	for i := 1; i < len(data); i += 2 {
		op, arg := data[i], byte(0)
		if i+1 < len(data) {
			arg = data[i+1]
		}
		p, withHandle := int(op/8), arg < 128
		ret := ""
		switch op % 8 {
		case 0, 1, 2:
			schedule(delayPool[arg%8], true, withHandle, p)
		case 3:
			if p%2 == 0 {
				cancelPending(int(arg))
			} else {
				rearm(int(arg), s.now()-1+delayPool[p/2%len(delayPool)])
			}
		case 4:
			s.runUntil(s.now() + VTime(arg%16))
		case 5:
			ret = fmt.Sprint(s.step())
		case 6:
			ret = fmt.Sprint(s.run())
		case 7:
			schedule(VTime(arg%32), false, withHandle, p)
		}
		trace = append(trace, fmt.Sprintf("op %d/%d %s now=%d pending=%d fired=%d",
			i, op%8, ret, s.now(), s.pending(), s.fired()))
	}
	return trace
}

// engineUnderTest adapts Engine to the fuzz surface: After and At for
// handle-less events, Arm for armed ones.
type engineUnderTest struct{ e *Engine }

func (u engineUnderTest) after(d VTime, fn func())    { u.e.After(d, fn) }
func (u engineUnderTest) at(t VTime, fn func()) error { return u.e.At(t, fn) }
func (u engineUnderTest) arm(t VTime, fn func()) (handle, error) {
	h := &engineHandle{e: u.e, fn: fn}
	if err := u.e.Arm(&h.ev, t, fn); err != nil {
		return nil, err
	}
	return h, nil
}
func (u engineUnderTest) step() bool       { return u.e.Step() }
func (u engineUnderTest) run() uint64      { return u.e.Run() }
func (u engineUnderTest) runUntil(t VTime) { u.e.RunUntil(t) }
func (u engineUnderTest) now() VTime       { return u.e.Now() }
func (u engineUnderTest) pending() int     { return u.e.Pending() }
func (u engineUnderTest) fired() uint64    { return u.e.Fired() }

// engineHandle is an armed event's Event and the callback it re-arms.
type engineHandle struct {
	e  *Engine
	ev Event
	fn func()
}

func (h *engineHandle) cancel()             { h.ev.Cancel() }
func (h *engineHandle) rearm(t VTime) error { return h.e.Arm(&h.ev, t, h.fn) }

// refScheduler is the oracle: events in scheduling order, stable-sorted by
// time before each removal.
type refScheduler struct {
	clock, horizon VTime
	queue          []*refEvent
	count          uint64
}

type refEvent struct {
	at        VTime
	fn        func()
	cancelled bool
}

func newRefScheduler(horizon VTime) *refScheduler {
	if horizon == 0 {
		horizon = math.MaxInt64
	}
	return &refScheduler{horizon: horizon}
}

func (r *refScheduler) after(d VTime, fn func()) { r.push(r.clock+max(d, 0), fn) }

func (r *refScheduler) at(t VTime, fn func()) error {
	_, err := r.push(t, fn)
	return err
}

func (r *refScheduler) arm(t VTime, fn func()) (handle, error) {
	ev, err := r.push(t, fn)
	if err != nil {
		return nil, err
	}
	return &refHandle{r: r, ev: ev}, nil
}

func (r *refScheduler) push(t VTime, fn func()) (*refEvent, error) {
	if t < r.clock {
		return nil, ErrPastEvent
	}
	ev := &refEvent{at: t, fn: fn}
	r.queue = append(r.queue, ev)
	return ev, nil
}

// refHandle re-arms as a cancel of the event it holds plus a new event.
type refHandle struct {
	r  *refScheduler
	ev *refEvent
}

func (h *refHandle) cancel() { h.ev.cancelled = true }

func (h *refHandle) rearm(t VTime) error {
	next, err := h.r.push(t, h.ev.fn)
	if err != nil {
		return err
	}
	h.ev.cancelled = true
	h.ev = next
	return nil
}

// head returns the earliest event, scheduling order breaking ties.
func (r *refScheduler) head() *refEvent {
	slices.SortStableFunc(r.queue, func(a, b *refEvent) int { return cmp.Compare(a.at, b.at) })
	return r.queue[0]
}

func (r *refScheduler) step() bool {
	for len(r.queue) > 0 {
		ev := r.head()
		r.queue = r.queue[1:]
		if ev.cancelled {
			continue
		}
		if ev.at >= r.horizon {
			r.clock = r.horizon
			return false
		}
		r.clock = ev.at
		r.count++
		ev.fn()
		return true
	}
	return false
}

func (r *refScheduler) run() uint64 {
	start := r.count
	for r.step() {
	}
	return r.count - start
}

func (r *refScheduler) runUntil(t VTime) {
	t = min(t, r.horizon)
	for len(r.queue) > 0 {
		if ev := r.head(); ev.cancelled {
			r.queue = r.queue[1:]
			continue
		} else if ev.at >= t {
			break
		}
		r.step()
	}
	r.clock = max(r.clock, t)
}

func (r *refScheduler) now() VTime    { return r.clock }
func (r *refScheduler) pending() int  { return len(r.queue) }
func (r *refScheduler) fired() uint64 { return r.count }
