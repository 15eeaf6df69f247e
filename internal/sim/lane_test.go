package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// hopFunc schedules a fire-and-forget callback d from now: DelayArgs in
// the run under test, AfterArgs in the reference run.
type hopFunc func(s *Simulator, d Time, fn ArgsFunc, a, b any)

func laneHop(s *Simulator, d Time, fn ArgsFunc, a, b any) { s.DelayArgs(d, fn, a, b) }

func heapHop(s *Simulator, d Time, fn ArgsFunc, a, b any) { s.AfterArgs(d, fn, a, b) }

// stamp is one executed callback: when it ran, which one it was, and
// what Pending() reported while it ran.
type stamp struct {
	at      Time
	id      int
	pending int
}

// script is a random event program. Every decision comes from its own
// RNG in execution order, so two runs draw the same program exactly as
// long as they execute the same (time, id) sequence.
type script struct {
	s      *Simulator
	rng    *rand.Rand
	hop    hopFunc
	timers []Timer
	nextID int
	budget int
	log    []stamp
	// post, when set, hands a callback to the peer shard instead of
	// scheduling it locally (sharded runs only).
	post func(id int)
}

func scriptFire(a, b any) { a.(*script).fire(b.(int)) }

func (r *script) fire(id int) {
	r.log = append(r.log, stamp{r.s.Now(), id, r.s.Pending()})
	r.spawn(1 + r.rng.Intn(2))
}

// delay draws d = 0, one of a few repeated delays (negative clamps to
// 0), or one of many distinct delays.
func (r *script) delay() Time {
	switch r.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		pool := [...]Time{-Millisecond, Millisecond, 5 * Millisecond, 20 * Millisecond}
		return pool[r.rng.Intn(len(pool))]
	}
	return Time(r.rng.Int63n(int64(30 * Millisecond)))
}

// spawn schedules up to k new callbacks, mixing At, AfterArgs with a
// kept Timer, Timer.Stop, the fixed-delay hop and (sharded) cross-shard
// posts.
func (r *script) spawn(k int) {
	for ; k > 0 && r.budget > 0; k-- {
		r.budget--
		id := r.nextID
		r.nextID++
		switch op := r.rng.Intn(6); {
		case op == 0:
			r.s.At(r.s.Now()+Time(r.rng.Int63n(int64(10*Millisecond))), func() { r.fire(id) })
		case op == 1:
			r.timers = append(r.timers, r.s.AfterArgs(Time(r.rng.Int63n(int64(10*Millisecond))), scriptFire, r, id))
		case op == 2 && len(r.timers) > 0:
			r.timers[r.rng.Intn(len(r.timers))].Stop()
		case op == 3 && r.post != nil:
			r.post(id)
		default:
			r.hop(r.s, r.delay(), scriptFire, r, id)
		}
	}
}

// window is the simulator's state after one run window.
type window struct {
	now      Time
	pending  int
	executed uint64
}

// runScript plays the script for seed through random RunUntil/RunBefore
// windows, scheduling from outside callbacks between windows, until the
// queue drains. A positive limit is installed with SetEventLimit; the
// run then stops at the limit panic and panicked reports it.
func runScript(seed int64, hop hopFunc, limit uint64) (log []stamp, wins []window, lanes int, panicked bool) {
	s := New(seed)
	r := &script{s: s, rng: rand.New(rand.NewSource(seed)), hop: hop, budget: 3000}
	s.SetEventLimit(limit)
	r.spawn(20)
	defer func() {
		if recover() != nil {
			log, lanes, panicked = r.log, len(s.lanes), true
		}
	}()
	end := Time(0)
	for s.Pending() > 0 {
		end += Time(r.rng.Int63n(int64(15 * Millisecond)))
		if r.rng.Intn(2) == 0 {
			s.RunUntil(end)
		} else {
			s.RunBefore(end)
		}
		wins = append(wins, window{s.Now(), s.Pending(), s.Executed()})
		r.spawn(1)
	}
	return r.log, wins, len(s.lanes), false
}

// TestDelayArgsOrderEquivalence is the lane property: for random scripts
// mixing At, AfterArgs, Timer.Stop and DelayArgs (d = 0, repeated and
// many distinct delays, scheduled inside callbacks and between windows),
// the executed (time, id) sequence, Pending() inside every callback and
// after every window, and Executed() equal the run in which every
// DelayArgs is an AfterArgs. The same holds when SetEventLimit aborts the
// run halfway, so the limit counts lane items.
func TestDelayArgsOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got, gotWins, lanes, _ := runScript(seed, laneHop, 0)
		want, wantWins, _, _ := runScript(seed, heapHop, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: lane run executed %d callbacks, reference %d, or in a different order", seed, len(got), len(want))
		}
		if !reflect.DeepEqual(gotWins, wantWins) {
			t.Fatalf("seed %d: window states differ:\nlanes %v\nheap  %v", seed, gotWins, wantWins)
		}
		if len(got) < 100 || lanes < 4 {
			t.Fatalf("seed %d: script too small to mean anything (%d callbacks, %d lanes)", seed, len(got), lanes)
		}
		limit := uint64(len(want) / 2)
		got, _, _, gotPanic := runScript(seed, laneHop, limit)
		want, _, _, wantPanic := runScript(seed, heapHop, limit)
		if !gotPanic || !wantPanic || !reflect.DeepEqual(got, want) || uint64(len(got)) != limit {
			t.Fatalf("seed %d: event limit %d: lane run ran %d (panic %v), reference %d (panic %v)",
				seed, limit, len(got), gotPanic, len(want), wantPanic)
		}
	}
}

// TestDelayArgsCounts pins the bookkeeping directly: queued lane items
// count in Pending(), executed ones in Executed(), and against the event
// limit.
func TestDelayArgsCounts(t *testing.T) {
	s := New(1)
	ran := 0
	count := func(a, b any) { ran++ }
	for i := 0; i < 100; i++ {
		s.DelayArgs(Millisecond, count, nil, nil)
	}
	for i := 0; i < 50; i++ {
		s.DelayArgs(Time(i)*Microsecond, count, nil, nil)
	}
	if s.Pending() != 150 {
		t.Fatalf("Pending() = %d with 150 lane items, want 150", s.Pending())
	}
	if n := s.RunUntil(500 * Microsecond); n != 50 || s.Executed() != 50 || s.Pending() != 100 {
		t.Fatalf("RunUntil ran %d, Executed() = %d, Pending() = %d; want 50, 50, 100", n, s.Executed(), s.Pending())
	}
	s.SetEventLimit(120)
	defer func() {
		if recover() == nil {
			t.Fatal("event limit did not stop a run of lane items")
		}
		if ran != 120 || s.Pending() != 29 {
			t.Fatalf("stopped after %d callbacks with %d pending, want 120 and 29", ran, s.Pending())
		}
	}()
	s.Run()
}

// runShardedScript plays one script per shard on a 2-shard coordinator;
// one spawn in six posts to the peer shard past the lookahead.
func runShardedScript(seed int64, hop hopFunc) ([][]stamp, uint64) {
	const la = 2 * Millisecond
	c := NewCoordinator(seed, 2)
	c.SetLookahead(0, 1, la)
	c.SetLookahead(1, 0, la)
	rs := make([]*script, 2)
	for i := range rs {
		rs[i] = &script{s: c.Shard(i).Simulator, rng: rand.New(rand.NewSource(seed + int64(i))), hop: hop, budget: 2000}
	}
	for i, r := range rs {
		i, r := i, r
		sh, peer := c.Shard(i), rs[1-i]
		r.post = func(id int) {
			sh.Post(1-i, sh.Now()+la+Time(r.rng.Int63n(int64(5*Millisecond))), scriptFire, peer, id<<1|i)
		}
	}
	for _, r := range rs {
		r.spawn(10)
	}
	c.Run(10 * Second)
	return [][]stamp{rs[0].log, rs[1].log}, c.Rounds()
}

// TestDelayArgsShardedEquivalence: on a 2-shard coordinator, lanes leave
// every shard's execution log and the number of synchronization windows
// (which depend on each shard's earliest pending time) unchanged.
func TestDelayArgsShardedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		got, gotRounds := runShardedScript(seed, laneHop)
		want, wantRounds := runShardedScript(seed, heapHop)
		if !reflect.DeepEqual(got, want) || gotRounds != wantRounds {
			t.Fatalf("seed %d: lane run %d+%d callbacks in %d rounds, reference %d+%d in %d, or in a different order",
				seed, len(got[0]), len(got[1]), gotRounds, len(want[0]), len(want[1]), wantRounds)
		}
		if len(got[0])+len(got[1]) < 100 {
			t.Fatalf("seed %d: script too small (%d callbacks)", seed, len(got[0])+len(got[1]))
		}
	}
}
