// Command perfbench is the simulator's benchmark: it builds the
// workload's scenario specs from a seed, runs them through exp.Run for a
// fixed time, checks the outputs, and prints the metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload corpus|churn|mesh --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics, from spans around perfbench's
// calls into the program, exact counters from its public accessors, and
// a CPU profile bucketed by package. README.md describes the workloads
// and metrics. The exit code is 1 when any output check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"abc/internal/exp"
)

// Set-up is timed in at least minSetupReps samples and until setupTime
// has passed; setup_s is the median sample. A sample repeats set-up
// until setupBatch has passed and is the mean time of one, so that a
// set-up of microseconds (mesh's) is not read at the timer's grain.
const (
	minSetupReps = 21
	setupTime    = 250 * time.Millisecond
	setupBatch   = 2 * time.Millisecond
)

// mainShare is the share of a traced run spent on the alternating
// untraced/traced passes when the workload has a scaling row, which
// gets the rest.
const mainShare = 0.6

func main() {
	name := flag.String("workload", "", "workload: corpus, churn or mesh")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload corpus|churn|mesh --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Every timed pass runs on one core, so the collector and mesh's two
	// shards share it instead of also depending on a second core whose
	// load varies on a shared host: at 2, mesh's cell_ms_p90 spread
	// 0.23–0.26 over ten seeds, and at 1 it spreads 0.04–0.08. Two shards
	// on two cores ran no faster than on one (see sim.shard_speedup).
	runtime.GOMAXPROCS(1)
	b := &bench{w: w, budget: time.Duration(*seconds) * time.Second}
	if err := b.setup(*seed, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		os.Exit(1)
	}
	var rep *report
	if *traced == 1 {
		rep = b.runTraced()
	} else {
		rep = b.runPlain()
	}
	fmt.Printf("workload %s seed %d: %d passes, %d cells attempted, %d failed, fail_ratio %g\n",
		*name, *seed, len(b.passes)+len(b.tracedPasses), rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted))
	for _, l := range b.passes[0].bands {
		fmt.Println(l)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// bench holds one process's run of a workload.
type bench struct {
	w      *workload
	budget time.Duration
	cells  []cellSpec
	setups []time.Duration // one per set-up sample
	// setupCalls counts set-ups over all samples.
	setupCalls int
	tr         *tracer // nil on untraced runs

	passes       []*pass // untraced, timed
	tracedPasses []*pass
	// refs are reference kernel times: refs[0] before set-up, refs[1]
	// after it, and refs[i+2] after untraced pass i.
	refs   []time.Duration
	scaled [2][]*pass
	checks []*cellRun
	cpu    map[string]float64 // profiled CPU seconds per layer, traced passes
}

// pass is one run of every cell of the workload, in order.
type pass struct {
	wall     time.Duration
	cells    []*cellRun
	cnt      counters
	allocMB  float64
	gcCycles uint32
	bands    []string // the workload's cross-cell checks, with values
}

// setup generates the inputs repeatedly and keeps the last.
func (b *bench) setup(seed int64, traced bool) error {
	if traced {
		b.tr = newTracer()
	}
	b.refs = append(b.refs, refKernel())
	start := time.Now()
	for i := 0; i < minSetupReps || time.Since(start) < setupTime; i++ {
		runtime.GC()
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < setupBatch {
			sp := b.tr.begin("setup")
			cells, err := b.w.setup(seed, b.tr)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			b.cells = cells
			n++
		}
		b.setups = append(b.setups, time.Since(t0)/time.Duration(n))
		b.setupCalls += n
	}
	b.refs = append(b.refs, refKernel())
	return nil
}

// hostFactor scales a time measured between refs[i] and refs[i+1] to
// the nominal host (see refNominal).
func (b *bench) hostFactor(i int) float64 {
	return refNominal / ((b.refs[i] + b.refs[i+1]).Seconds() / 2)
}

// runPass runs every cell once; apply, when set, edits each spec first.
// The pass starts on a collected heap. The workload's cross-cell checks
// run after the clock stops.
func (b *bench) runPass(tr *tracer, apply func(*exp.Spec)) *pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := &pass{}
	t0 := time.Now()
	sp := tr.begin("pass")
	for i := range b.cells {
		cs := &b.cells[i]
		spec := cs.spec
		if apply != nil {
			apply(&spec)
		}
		p.cells = append(p.cells, runCell(cs, spec, tr))
	}
	tr.end(sp)
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	p.gcCycles = m1.NumGC - m0.NumGC
	for _, c := range p.cells {
		p.cnt.add(&c.cnt)
	}
	if b.w.check != nil {
		p.bands = b.w.check(p.cells)
	}
	return p
}

// more reports whether another step as long as the last one (one pass,
// or one round of alternating passes) ends before until.
func more(start time.Time, until, last time.Duration) bool {
	return time.Since(start)+last <= until
}

// runPlain measures untraced passes for the budget.
func (b *bench) runPlain() *report {
	start := time.Now()
	for step := time.Duration(0); step == 0 || more(start, b.budget, step); {
		t0 := time.Now()
		b.passes = append(b.passes, b.runPass(nil, nil))
		b.refs = append(b.refs, refKernel())
		step = time.Since(t0)
	}
	b.verify()
	// Every time is scaled to the nominal host. A cell's time is its
	// median over the passes; the quantiles are taken over the
	// workload's cells.
	walls, raw := make([]float64, len(b.passes)), passWalls(b.passes)
	for j := range b.passes {
		walls[j] = raw[j] * b.hostFactor(j+1)
	}
	cellMs := make([]float64, len(b.cells))
	for i := range cellMs {
		var ms []float64
		for j, p := range b.passes {
			ms = append(ms, p.cells[i].wall.Seconds()*1e3*b.hostFactor(j+1))
		}
		cellMs[i] = median(ms)
	}
	wall := median(walls)
	setup := median(durations(b.setups)) * b.hostFactor(0)
	fmt.Printf("host: reference kernel median %.4f s (nominal %g s); unscaled wall_s %.4f setup_s %.6f\n",
		median(durations(b.refs)), refNominal, median(raw), median(durations(b.setups)))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.checks = append(b.checks, &cellRun{fails: []string{"getrusage: " + err.Error()}})
	}
	rep := b.newReport()
	rep.set("wall_s", wall, "s")
	rep.set("sim_pkts_per_s", float64(b.passes[0].cnt.pkts)/wall, "1/s")
	rep.set("setup_s", setup, "s")
	rep.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	rep.set("cell_ms_p50", quantile(cellMs, 0.5), "ms")
	rep.set("cell_ms_p90", quantile(cellMs, 0.9), "ms")
	return rep
}

// runTraced alternates untraced and traced (spans + CPU profile) passes,
// then alternates the scaling row's two variants, and reports the
// per-layer metrics.
func (b *bench) runTraced() *report {
	b.cpu = make(map[string]float64)
	start := time.Now()
	main := b.budget
	if b.w.scaling != nil {
		main = time.Duration(float64(b.budget) * mainShare)
	}
	for step := time.Duration(0); step == 0 || more(start, main, step); {
		t0 := time.Now()
		b.passes = append(b.passes, b.runPass(nil, nil))
		b.refs = append(b.refs, refKernel())
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			b.checks = append(b.checks, &cellRun{fails: []string{"cpu profile: " + err.Error()}})
		}
		p := b.runPass(b.tr, nil)
		pprof.StopCPUProfile()
		b.tracedPasses = append(b.tracedPasses, p)
		buckets, err := bucketProfile(prof.Bytes())
		if err != nil {
			b.checks = append(b.checks, &cellRun{fails: []string{err.Error()}})
		}
		for l, s := range buckets {
			b.cpu[l] += s
		}
		step = time.Since(t0)
	}
	if sc := b.w.scaling; sc != nil {
		if sc.procs > 0 {
			runtime.GOMAXPROCS(sc.procs)
		}
		for step := time.Duration(0); step == 0 || more(start, b.budget, step); {
			t0 := time.Now()
			for v := range sc.apply {
				b.scaled[v] = append(b.scaled[v], b.runPass(nil, sc.apply[v]))
			}
			step = time.Since(t0)
		}
	}
	b.verify()

	n := float64(len(b.tracedPasses))
	p0 := b.passes[0].cnt
	rep := b.newReport()
	var profiled float64
	for _, l := range append(append([]string(nil), layers...), "runtime", "bench") {
		rep.set(l+".self_s", b.cpu[l]/n, "s")
		profiled += b.cpu[l]
	}
	rep.set("bench.profile_s", profiled/n, "s")
	rep.set("bench.ref_s", median(durations(b.refs)), "s")
	rep.set("bench.trace_overhead", median(passWalls(b.tracedPasses))/median(passWalls(b.passes)), "ratio")

	rep.set("sim.events", float64(p0.events), "count")
	rep.set("sim.events_per_pkt", ratio(float64(p0.events), float64(p0.pkts)), "ratio")
	rep.set("sim.coord_rounds", float64(p0.rounds), "count")
	var maxEv, sumEv float64
	for _, e := range p0.shardEvents {
		maxEv = math.Max(maxEv, float64(e))
		sumEv += float64(e)
	}
	rep.set("sim.shard_imbalance", ratio(maxEv, sumEv/float64(len(p0.shardEvents))), "ratio")
	rep.set("cc.acks", float64(p0.acked), "count")
	rep.set("cc.retx_ratio", ratio(float64(p0.retx), float64(p0.sent)), "ratio")
	rep.set("abc.marks", float64(p0.accel+p0.brake), "count")
	rep.set("abc.accel_ratio", ratio(float64(p0.accel), float64(p0.accel+p0.brake)), "ratio")
	rep.set("qdisc.drops", float64(p0.qdrops), "count")
	rep.set("netem.delivered_pkts", float64(p0.pkts), "count")
	rep.set("trace.gen_s", b.tr.total("trace.Cellular").Seconds()/float64(b.setupCalls), "s")
	rep.set("metrics.samples", float64(p0.samples), "count")
	rep.set("topo.routes", float64(p0.routes), "count")
	rep.set("topo.drops", float64(p0.topoDrops), "count")
	rep.set("app.spawned", float64(p0.spawned), "count")
	rep.set("app.completed_ratio", ratio(float64(p0.done), float64(p0.spawned)), "ratio")
	rep.set("fluid.served_mb", p0.servedMB, "MB")
	rep.set("exp.run_s", b.tr.total("exp.Run").Seconds()/n, "s")
	var alloc, gcs []float64
	for _, p := range b.passes {
		alloc = append(alloc, p.allocMB)
		gcs = append(gcs, float64(p.gcCycles))
	}
	rep.set("runtime.alloc_mb", median(alloc), "MB")
	rep.set("runtime.gc_cycles", median(gcs), "count")
	// Scaling rows a workload does not have read 0.
	rep.set("sim.shard_speedup", 0, "ratio")
	rep.set("fluid.user_scaling", 0, "ratio")
	if sc := b.w.scaling; sc != nil {
		w0, w1 := passWalls(b.scaled[0]), passWalls(b.scaled[1])
		rep.set(sc.metric, median(w1)/median(w0), "ratio")
		for v, w := range [][]float64{w0, w1} {
			fmt.Printf("%s %-10s wall_s n=%d min=%.4f q1=%.4f median=%.4f q3=%.4f max=%.4f\n",
				sc.metric, sc.label[v], len(w), quantile(w, 0), quantile(w, 0.25), median(w), quantile(w, 0.75), quantile(w, 1))
		}
	}
	b.tr.write(os.Stdout)
	return rep
}

// verify re-runs the workload's first cell (the designated cell) and
// each cell's reference spec and compares digests, and compares every
// cell's digest across the passes of the unmodified specs and of the
// scaling variants that must not change the output.
func (b *bench) verify() {
	first := b.passes[0].cells
	rest := append(append([]*pass(nil), b.passes[1:]...), b.tracedPasses...)
	if sc := b.w.scaling; sc != nil && sc.same {
		rest = append(append(rest, b.scaled[0]...), b.scaled[1]...)
	}
	for _, p := range rest {
		for i, c := range p.cells {
			if c.digest != first[i].digest {
				c.fail(fmt.Sprintf("%s: digest %.12s differs from the first pass's %.12s", c.cs.name, c.digest, first[i].digest))
			}
		}
	}
	re := runCell(&b.cells[0], b.cells[0].spec, nil)
	if re.digest != first[0].digest {
		re.fail(fmt.Sprintf("%s: re-run digest %.12s differs from %.12s", re.cs.name, re.digest, first[0].digest))
	}
	b.checks = append(b.checks, re)
	for i := range b.cells {
		cs := &b.cells[i]
		if cs.ref == nil {
			continue
		}
		r := runCell(cs, *cs.ref, nil)
		if r.digest != first[i].digest {
			r.fail(fmt.Sprintf("%s: reference digest %.12s differs from %.12s", cs.name, r.digest, first[i].digest))
		}
		b.checks = append(b.checks, r)
	}
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport counts every cell run, in passes and checks, and prints
// each failure to standard error.
func (b *bench) newReport() *report {
	rep := &report{Metrics: map[string]metric{}}
	all := append([]*pass(nil), b.passes...)
	all = append(all, b.tracedPasses...)
	all = append(all, b.scaled[0]...)
	all = append(all, b.scaled[1]...)
	cells := append([]*cellRun(nil), b.checks...)
	for _, p := range all {
		cells = append(cells, p.cells...)
	}
	for _, c := range cells {
		rep.Attempted++
		if len(c.fails) > 0 {
			rep.Failed++
			for _, f := range c.fails {
				fmt.Fprintln(os.Stderr, "FAIL:", f)
			}
		}
	}
	rep.Correct = rep.Failed == 0
	return rep
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one "name value unit" line per metric, then the JSON
// result as the last line.
func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-22s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}

func passWalls(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a count the workload does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
