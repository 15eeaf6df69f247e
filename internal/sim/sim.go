// Package sim provides a deterministic discrete-event simulator used as the
// substrate for all network experiments in this repository.
//
// Time is virtual, measured in integer nanoseconds from the start of the
// simulation. Events are callbacks scheduled at absolute virtual times and
// executed in (time, insertion-order) order, which makes every run fully
// deterministic: two simulations configured identically (including RNG
// seeds) produce byte-identical results.
//
// The event queue is a hand-rolled 4-ary min-heap over inline event
// structs. Scheduling state (the heap slice, the slot table and its free
// list) is recycled across events, so At/After/Stop and the run loop are
// allocation-free in steady state; the only per-event allocation is
// whatever closure the caller passes in. Callers on hot paths can avoid
// even that with AtArgs/AfterArgs, which carry a static function plus two
// pointer-shaped arguments inline in the event. Timer.Stop removes the
// event from the heap eagerly, so canceled events cost nothing and
// Pending() reflects live events only.
//
// Fire-and-forget callbacks on a fixed delay (propagation wires, fixed
// deferrals) use DelayArgs, which keeps them out of the heap. Each
// distinct delay d has one FIFO lane shared by every caller with that d.
// An item is keyed (now+d, seq) exactly as AfterArgs would key it; the
// clock never runs backwards and seq only grows, so a lane is already
// sorted by (at, seq), and only its head needs to sit in the heap. When
// the head runs, the next item takes its place under the seq it drew at
// scheduling time. The executed (at, seq) order, Executed(), Pending()
// and the earliest pending time heap[0].at that shard horizons read are
// therefore the same as if every DelayArgs were an AfterArgs; the heap
// just holds one entry per delay instead of one per packet in flight.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common time unit conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t expressed in (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in (floating point) milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration. Both are int64 nanoseconds.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration into a sim.Time delta.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts seconds into a sim.Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time with millisecond precision for logs.
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Millis()) }

// ArgsFunc is a callback that receives the two scheduling arguments given
// to AtArgs/AfterArgs. Both arguments should be pointer-shaped so that
// boxing them into the event is allocation-free.
type ArgsFunc func(a, b any)

// event is a scheduled callback, stored inline in the heap slice. seq
// breaks ties between events scheduled for the same instant:
// earlier-scheduled events run first. Exactly one of fn and fn2 is set.
// lane is 0 for an ordinary event and index+1 of its lane for a lane head.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	fn2  ArgsFunc
	a, b any
	slot int32
	lane int32
}

// slotInfo tracks one Timer handle slot: the event's current heap index
// and a generation counter that invalidates stale Timers when the slot is
// recycled.
type slotInfo struct {
	idx int32
	gen uint32
}

// Timer is a handle to a scheduled event that can be canceled. The zero
// Timer is inert: Stop on it reports false.
type Timer struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Stop cancels the timer, eagerly removing the event from the queue. It
// is safe to call multiple times and after the event has fired (in which
// case it has no effect). Reports whether the event had not yet fired.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen {
		return false // already fired, stopped, or slot recycled
	}
	t.s.heapRemove(int(sl.idx))
	t.s.freeSlot(t.slot)
	return true
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now  Time
	seq  uint64
	heap []event
	// slots maps Timer handles to heap positions; free lists recyclable
	// slot indices. Both are reused for the life of the simulator.
	slots []slotInfo
	free  []int32
	rng   *rand.Rand
	seed  int64
	// executed counts events run, useful for runaway detection in tests.
	executed uint64
	// limit aborts Run after this many events (0 = unlimited).
	limit  uint64
	halted bool
	// lanes are the DelayArgs FIFOs, laneOf maps a delay to its index+1
	// and lastDelay/lastLane cache the most recent lookup. queued counts
	// lane items waiting behind their heads, outside the heap.
	lanes     []*lane
	laneOf    map[Time]int32
	lastDelay Time
	lastLane  int32
	queued    int
}

// New returns a simulator with its clock at zero and the given RNG seed.
// All randomness used by simulated components must come from Rand() so that
// runs are reproducible.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the simulator was created with, so components
// can derive independent sub-streams (e.g. per-edge impairment RNGs)
// that stay stable under unrelated topology changes.
func (s *Simulator) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic RNG.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// SetEventLimit aborts Run after n events; 0 disables the limit.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// less orders events by (at, seq).
func (s *Simulator) less(i, j int) bool {
	if s.heap[i].at != s.heap[j].at {
		return s.heap[i].at < s.heap[j].at
	}
	return s.heap[i].seq < s.heap[j].seq
}

// place writes ev into heap position i and updates its slot's index.
func (s *Simulator) place(i int, ev event) {
	s.heap[i] = ev
	s.slots[ev.slot].idx = int32(i)
}

// siftUp restores the heap invariant upward from position i.
func (s *Simulator) siftUp(i int) {
	ev := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := s.heap[parent]
		if ev.at > p.at || (ev.at == p.at && ev.seq > p.seq) {
			break
		}
		s.place(i, p)
		i = parent
	}
	s.place(i, ev)
}

// siftDown restores the heap invariant downward from position i.
func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	ev := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(c, best) {
				best = c
			}
		}
		b := s.heap[best]
		if ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
			break
		}
		s.place(i, b)
		i = best
	}
	s.place(i, ev)
}

// heapPush inserts ev.
func (s *Simulator) heapPush(ev event) {
	s.heap = append(s.heap, ev)
	s.slots[ev.slot].idx = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// heapRemove deletes the event at heap index i, preserving the invariant.
func (s *Simulator) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = event{} // drop closure/arg references
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.place(i, last)
	s.siftDown(i)
	if int(s.slots[last.slot].idx) == i {
		s.siftUp(i)
	}
}

// allocSlot returns a slot index for a new event, reusing freed slots.
func (s *Simulator) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		sl := s.free[n-1]
		s.free = s.free[:n-1]
		return sl
	}
	// Generations start at 1 so the zero Timer never matches a live slot.
	s.slots = append(s.slots, slotInfo{gen: 1})
	return int32(len(s.slots) - 1)
}

// freeSlot invalidates outstanding Timers for the slot and recycles it.
func (s *Simulator) freeSlot(sl int32) {
	s.slots[sl].gen++
	s.free = append(s.free, sl)
}

// schedule inserts an event at absolute time t.
func (s *Simulator) schedule(t Time, fn func(), fn2 ArgsFunc, a, b any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	sl := s.allocSlot()
	s.heapPush(event{at: t, seq: s.seq, fn: fn, fn2: fn2, a: a, b: b, slot: sl})
	s.seq++
	return Timer{s: s, slot: sl, gen: s.slots[sl].gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in a component.
func (s *Simulator) At(t Time, fn func()) Timer {
	return s.schedule(t, fn, nil, nil, nil)
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, nil, nil, nil)
}

// AtArgs schedules fn(a, b) at absolute time t without allocating a
// closure: fn should be a static function and a, b pointer-shaped values.
func (s *Simulator) AtArgs(t Time, fn ArgsFunc, a, b any) Timer {
	return s.schedule(t, nil, fn, a, b)
}

// AfterArgs schedules fn(a, b) to run d after the current time; see AtArgs.
func (s *Simulator) AfterArgs(d Time, fn ArgsFunc, a, b any) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, nil, fn, a, b)
}

// Halt stops the run loop after the current event completes.
func (s *Simulator) Halt() { s.halted = true }

// Pending reports the number of scheduled events, DelayArgs callbacks
// included. Canceled events are removed eagerly and never counted.
func (s *Simulator) Pending() int { return len(s.heap) + s.queued }

// popHead removes the root event and returns it.
func (s *Simulator) popHead() event {
	ev := s.heap[0]
	if ev.lane != 0 {
		s.popLaneHead(ev.lane)
		return ev
	}
	s.heapRemove(0)
	s.freeSlot(ev.slot)
	return ev
}

// dispatch runs one event's callback.
func (s *Simulator) dispatch(ev event) {
	s.executed++
	if s.limit != 0 && s.executed > s.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at %v", s.limit, s.now))
	}
	if ev.fn2 != nil {
		ev.fn2(ev.a, ev.b)
	} else {
		ev.fn()
	}
}

// RunUntil executes events in order until the queue is empty or the next
// event is strictly after end. The clock is left at min(end, last event
// time). Reports the number of events executed by this call.
func (s *Simulator) RunUntil(end Time) uint64 {
	start := s.executed
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		if s.heap[0].at > end {
			break
		}
		ev := s.popHead()
		s.now = ev.at
		s.dispatch(ev)
	}
	if s.now < end {
		s.now = end
	}
	return s.executed - start
}

// RunBefore executes pending events with timestamps strictly before
// limit, leaving the clock at the last executed event — the caller owns
// final clock placement. This is the shard window primitive: windows are
// half-open because an event exactly at the horizon may still be
// preceded by a cross-shard arrival at the same instant.
func (s *Simulator) RunBefore(limit Time) uint64 {
	start := s.executed
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		if s.heap[0].at >= limit {
			break
		}
		ev := s.popHead()
		s.now = ev.at
		s.dispatch(ev)
	}
	return s.executed - start
}

// Run executes all events until the queue drains.
func (s *Simulator) Run() uint64 {
	start := s.executed
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		ev := s.popHead()
		s.now = ev.at
		s.dispatch(ev)
	}
	return s.executed - start
}

// Every schedules fn to run every period until it returns false or the
// simulation ends. The first call happens one period from now.
func (s *Simulator) Every(period Time, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var tick func()
	tick = func() {
		if fn() {
			s.After(period, tick)
		}
	}
	s.After(period, tick)
}
