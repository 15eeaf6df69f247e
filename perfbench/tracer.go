package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// tracer records spans around perfbench's calls into the program's
// layers. Spans nest: begin opens a child of the innermost open span.
// A nil tracer records nothing, which is how untraced runs call it.
type tracer struct {
	spans []span
	open  int // innermost open span, -1 at top level
}

type span struct {
	name       string
	parent     int
	start, end time.Time
}

func newTracer() *tracer { return &tracer{open: -1} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.open, start: time.Now()})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Now()
	t.open = t.spans[i].parent
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int
	total, self time.Duration
}

// stats totals the closed spans by name. A span's self time is its
// duration minus the time its child spans cover.
func (t *tracer) stats() map[string]*spanStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := s.end.Sub(s.start)
		st.count++
		st.total += d
		st.self += d - child[i]
	}
	return out
}

// total is the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	if st := t.stats()[name]; st != nil {
		return st.total
	}
	return 0
}

// write prints the span table, largest total first.
func (t *tracer) write(w io.Writer) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].total > st[names[j]].total })
	fmt.Fprintf(w, "%-16s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-16s %7d %12.6f %12.6f\n", n, s.count, s.total.Seconds(), s.self.Seconds())
	}
}
