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
// Input layout: byte 0 picks the horizon (b%64, 0 = none); then each pair
// (op, arg) is one operation, op%8 selecting it and op/8 parameterizing
// the callback of a scheduled event:
//
//	0-2  After(delays[arg%8])          3  cancel the arg-th pending event
//	4    RunUntil(now + arg%16)        5  Step
//	6    Run                           7  At(arg%32), possibly in the past
//
// A callback's parameter p selects what it does when it fires: p%4 = 0
// nothing, 1 schedule a child After(delays[p/4]), 2 cancel the (p/4)-th
// pending event, 3 schedule a child At(now - p/4%2) (in the past when odd).
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
	after(d VTime, fn func()) (cancel func())
	at(t VTime, fn func()) (cancel func(), err error)
	step() bool
	run() uint64
	runUntil(t VTime)
	now() VTime
	pending() int
	fired() uint64
}

// playEngineOps runs the decoded program against s and returns its trace.
func playEngineOps(data []byte, s scheduler) []string {
	var trace []string
	var cancels []func() // by event id
	var live []int       // ids scheduled, not yet fired or cancelled, in id order
	drop := func(id int) {
		if i := slices.Index(live, id); i >= 0 {
			live = slices.Delete(live, i, i+1)
		}
	}
	cancelPending := func(k int) {
		if len(live) == 0 {
			return
		}
		id := live[k%len(live)]
		cancels[id]()
		drop(id)
		trace = append(trace, fmt.Sprintf("cancel %d", id))
	}
	var schedule func(t VTime, relative bool, p int)
	schedule = func(t VTime, relative bool, p int) {
		id := len(cancels)
		fn := func() {
			drop(id)
			trace = append(trace, fmt.Sprintf("fire %d at %d", id, s.now()))
			switch p % 4 {
			case 1:
				schedule(delayPool[p/4%len(delayPool)], true, 0)
			case 2:
				cancelPending(p / 4)
			case 3:
				schedule(s.now()-VTime(p/4%2), false, 0)
			}
		}
		if relative {
			cancels = append(cancels, s.after(t, fn))
		} else {
			cancel, err := s.at(t, fn)
			if err != nil {
				trace = append(trace, fmt.Sprintf("at %d: %v", t, err))
				return
			}
			cancels = append(cancels, cancel)
		}
		live = append(live, id)
	}
	for i := 1; i < len(data); i += 2 {
		op, arg := data[i], byte(0)
		if i+1 < len(data) {
			arg = data[i+1]
		}
		p := int(op / 8)
		ret := ""
		switch op % 8 {
		case 0, 1, 2:
			schedule(delayPool[arg%8], true, p)
		case 3:
			cancelPending(int(arg))
		case 4:
			s.runUntil(s.now() + VTime(arg%16))
		case 5:
			ret = fmt.Sprint(s.step())
		case 6:
			ret = fmt.Sprint(s.run())
		case 7:
			schedule(VTime(arg%32), false, p)
		}
		trace = append(trace, fmt.Sprintf("op %d/%d %s now=%d pending=%d fired=%d",
			i, op%8, ret, s.now(), s.pending(), s.fired()))
	}
	return trace
}

// engineUnderTest adapts Engine to the fuzz surface.
type engineUnderTest struct{ e *Engine }

func (u engineUnderTest) after(d VTime, fn func()) func() { return u.e.After(d, "fuzz", fn).Cancel }
func (u engineUnderTest) at(t VTime, fn func()) (func(), error) {
	ev, err := u.e.At(t, "fuzz", fn)
	if err != nil {
		return nil, err
	}
	return ev.Cancel, nil
}
func (u engineUnderTest) step() bool       { return u.e.Step() }
func (u engineUnderTest) run() uint64      { return u.e.Run() }
func (u engineUnderTest) runUntil(t VTime) { u.e.RunUntil(t) }
func (u engineUnderTest) now() VTime       { return u.e.Now() }
func (u engineUnderTest) pending() int     { return u.e.Pending() }
func (u engineUnderTest) fired() uint64    { return u.e.Fired() }

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

func (r *refScheduler) after(d VTime, fn func()) func() {
	cancel, _ := r.at(r.clock+max(d, 0), fn)
	return cancel
}

func (r *refScheduler) at(t VTime, fn func()) (func(), error) {
	if t < r.clock {
		return nil, ErrPastEvent
	}
	ev := &refEvent{at: t, fn: fn}
	r.queue = append(r.queue, ev)
	return func() { ev.cancelled = true }, nil
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
