package sim

// laneItem is one DelayArgs callback queued behind its lane's head. It
// keeps the (at, seq) key DelayArgs gave it, so it runs exactly where an
// AfterArgs event with that key would.
type laneItem struct {
	at   Time
	seq  uint64
	fn   ArgsFunc
	a, b any
}

// lane is the FIFO of fire-and-forget callbacks sharing one delay d.
// Every item is keyed (now+d, seq) with a nondecreasing clock and an
// increasing seq, so the lane is already sorted by (at, seq) and only its
// head needs to sit in the heap. ring holds the items behind the head.
type lane struct {
	ring  []laneItem // power-of-two capacity
	head  int
	n     int
	slot  int32 // heap slot of the head, held for the simulator's life
	armed bool  // the head is in the heap; implies n == 0 when false
}

// push appends it behind the head, doubling the ring when full.
func (l *lane) push(it laneItem) {
	if l.n == len(l.ring) {
		grown := make([]laneItem, max(16, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = it
	l.n++
}

// pop removes and returns the oldest queued item; n must be positive.
func (l *lane) pop() laneItem {
	it := l.ring[l.head]
	l.ring[l.head] = laneItem{} // drop arg references
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return it
}

// laneFor returns the index+1 of the lane for delay d, creating it on
// first use. A one-entry cache serves runs of the same delay without a
// map lookup.
func (s *Simulator) laneFor(d Time) int32 {
	if s.lastLane != 0 && s.lastDelay == d {
		return s.lastLane
	}
	li, ok := s.laneOf[d]
	if !ok {
		if s.laneOf == nil {
			s.laneOf = make(map[Time]int32)
		}
		s.lanes = append(s.lanes, &lane{slot: s.allocSlot()})
		li = int32(len(s.lanes))
		s.laneOf[d] = li
	}
	s.lastDelay, s.lastLane = d, li
	return li
}

// DelayArgs schedules fn(a, b) to run d after the current time, like
// AfterArgs but without a Timer: the callback cannot be canceled. It takes
// the same sequence number AfterArgs would, so execution order is
// identical; the difference is only where the event waits. Every
// DelayArgs callback with the same d joins one FIFO lane, and only the
// lane's head occupies the heap, so a fixed-delay hop with many packets
// in flight costs the heap one entry instead of one per packet.
func (s *Simulator) DelayArgs(d Time, fn ArgsFunc, a, b any) {
	if d < 0 {
		d = 0
	}
	li := s.laneFor(d)
	l := s.lanes[li-1]
	at, seq := s.now+d, s.seq
	s.seq++
	if l.armed {
		l.push(laneItem{at: at, seq: seq, fn: fn, a: a, b: b})
		s.queued++
		return
	}
	l.armed = true
	s.heapPush(event{at: at, seq: seq, fn2: fn, a: a, b: b, slot: l.slot, lane: li})
}

// popLaneHead removes the heap root, which is the head of lane li, and
// re-arms the lane's next item in its place under the seq it already
// holds, so no new sequence number is drawn.
func (s *Simulator) popLaneHead(li int32) {
	l := s.lanes[li-1]
	if l.n == 0 {
		l.armed = false
		s.heapRemove(0)
		return
	}
	it := l.pop()
	s.queued--
	// The next item is no earlier than the root it replaces, so sifting
	// down from the root restores the heap.
	s.heap[0] = event{at: it.at, seq: it.seq, fn2: it.fn, a: it.a, b: it.b, slot: l.slot, lane: li}
	s.siftDown(0)
}
