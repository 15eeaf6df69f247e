package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/exp"
	"abc/internal/netem"
	"abc/internal/sim"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// cellSpec is one exp.Run of a workload pass.
type cellSpec struct {
	name string
	// group and label key the cross-cell paper checks ("cellular" /
	// "wifi" group, scheme label).
	group, label string
	spec         exp.Spec
	// ref, when set, is a spec whose output digest must equal this
	// cell's (mesh: the same ring on the sequential simulator).
	ref *exp.Spec
}

// scaling is a traced-only comparison row: the pass is run under two
// spec variants, and the metric is median wall(variant 1) / median
// wall(variant 0).
type scaling struct {
	metric string
	label  [2]string
	apply  [2]func(*exp.Spec)
	// same marks variants whose outputs must equal the unmodified
	// pass's (mesh: the shard count changes no output).
	same bool
	// procs, when set, is GOMAXPROCS for the row's passes (mesh: 2, so
	// that the shards can run on both cores).
	procs int
}

// workload is one benchmark workload.
type workload struct {
	// setup generates the inputs and returns a pass's cells in run order.
	setup   func(seed int64, tr *tracer) ([]cellSpec, error)
	check   func(cells []*cellRun) []string
	scaling *scaling
}

var workloads = map[string]*workload{
	"corpus": {setup: corpusSetup, check: corpusCheck},
	"churn": {setup: churnSetup, scaling: &scaling{
		metric: "fluid.user_scaling",
		label:  [2]string{"1e3 users", "1e6 users"},
		apply:  [2]func(*exp.Spec){withUsers(1000), withUsers(1000000)},
	}},
	"mesh": {setup: meshSetup, scaling: &scaling{
		metric: "sim.shard_speedup",
		label:  [2]string{"2 shards", "1 shard"},
		apply: [2]func(*exp.Spec){
			func(s *exp.Spec) { s.Shards = 2 },
			func(s *exp.Spec) { s.Shards = 1 },
		},
		same:  true,
		procs: 2,
	}},
}

// --- corpus: the paper's evaluation cells ---

// corpusDur is each corpus cell's simulated duration, the duration
// abcreport -fast uses for the cellular figures.
const corpusDur = 20 * sim.Second

// cellFamilies are the eight carrier-family parameter sets of
// trace.NamedCellular; the corpus draws each trace's walk seed from the
// benchmark seed instead of using the fixed named seeds.
var cellFamilies = []struct {
	name string
	p    trace.CellParams
}{
	{"Verizon1", trace.CellParams{MeanMbps: 9, Sigma: 0.22, OutageProb: 0.015}},
	{"Verizon2", trace.CellParams{MeanMbps: 6, Sigma: 0.26, OutageProb: 0.03}},
	{"Verizon3", trace.CellParams{MeanMbps: 14, Sigma: 0.18, OutageProb: 0.01}},
	{"Verizon4", trace.CellParams{MeanMbps: 4, Sigma: 0.3, OutageProb: 0.04}},
	{"TMobile1", trace.CellParams{MeanMbps: 11, Sigma: 0.2, OutageProb: 0.02}},
	{"TMobile2", trace.CellParams{MeanMbps: 7, Sigma: 0.24, OutageProb: 0.025}},
	{"ATT1", trace.CellParams{MeanMbps: 12, Sigma: 0.16, OutageProb: 0.012}},
	{"ATT2", trace.CellParams{MeanMbps: 5, Sigma: 0.28, OutageProb: 0.035}},
}

// corpusSetup generates the eight cellular traces from the seed and
// builds every Fig. 9 cell (trace × exp.Schemes) and every Fig. 10 cell
// (exp.Fig10SchemeSet on the alternating-MCS Wi-Fi link).
func corpusSetup(seed int64, tr *tracer) ([]cellSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var cells []cellSpec
	for _, fam := range cellFamilies {
		p := fam.p
		p.Seed = rng.Int63()
		p.Duration = 60 * sim.Second
		sp := tr.begin("trace.Cellular")
		t := cellularAtMean(fam.name, p)
		tr.end(sp)
		for _, sch := range exp.Schemes {
			cells = append(cells, cellSpec{
				name: fam.name + "/" + sch, group: "cellular", label: sch,
				spec: exp.Spec{
					Seed: seed, Duration: corpusDur, RTT: 100 * sim.Millisecond,
					Links: []exp.LinkSpec{{Trace: t}},
					Flows: []exp.FlowSpec{{Scheme: sch}},
				},
			})
		}
	}
	for _, ws := range exp.Fig10SchemeSet {
		cells = append(cells, cellSpec{
			name: "wifi/" + ws.Label, group: "wifi", label: ws.Label,
			spec: wifiSpec(ws, seed),
		})
	}
	return cells, nil
}

// cellularAtMean generates the trace, then regenerates it from the same
// walk seed with its mean rate rescaled, twice, so that its capacity over
// a cell's duration is the family's mean to within 0.01% (0.5% after one
// rescale, up to 86% off before any, over 200 seeds × 8 families). The
// seed then picks the shape of the walk (fades, outages) but not the
// amount of work: unscaled, the capacity over 20 s moves a pass's
// delivered packets by up to ±7% from seed to seed. The walk's steps are
// the same at every mean, and all its rates scale with it except those
// held at the 0.4 Mbit/s floor.
func cellularAtMean(name string, p trace.CellParams) *trace.Trace {
	want := p.MeanMbps * 1e6
	t := trace.Cellular(name, p)
	for i := 0; i < 2; i++ {
		p.MeanMbps *= want / t.CapacityBps(corpusDur, corpusDur)
		t = trace.Cellular(name, p)
	}
	return t
}

// wifiSpec is exp.RunWiFi's one-user scenario: a 1000-frame AP buffer,
// and for ABC the §4.1 link-rate estimator with the scheme's delay
// threshold.
func wifiSpec(ws exp.WiFiScheme, seed int64) exp.Spec {
	const buf = 1000
	cfg := wifi.DefaultLinkConfig()
	cfg.MCS = exp.AlternatingMCS(seed)
	wl := &exp.WiFiLinkSpec{Config: cfg}
	q := exp.QdiscSpec{Kind: "auto", Buffer: buf}
	if ws.Scheme == "ABC" {
		rc := abc.DefaultRouterConfig()
		rc.Limit = buf
		rc.Window = 40 * sim.Millisecond
		if ws.ABCdt > 0 {
			rc.DelayThreshold = ws.ABCdt
		}
		q = exp.QdiscSpec{Kind: "abc", ABCConfig: &rc}
		wl.Estimate = true
	}
	return exp.Spec{
		Seed: seed, Duration: corpusDur, Warmup: 3 * sim.Second, RTT: 60 * sim.Millisecond,
		Links: []exp.LinkSpec{{Wifi: wl, Qdisc: q}},
		Flows: []exp.FlowSpec{{Scheme: ws.Scheme}},
	}
}

// corpusCheck applies the paper-anchored sanity bands to one pass, fails
// every cell a violated band read, and returns one line per band.
func corpusCheck(cells []*cellRun) []string {
	mean := func(group, label string, f func(*cellRun) float64) (float64, []*cellRun) {
		var sum float64
		var read []*cellRun
		for _, c := range cells {
			if c.cs.group == group && c.cs.label == label {
				sum += f(c)
				read = append(read, c)
			}
		}
		return sum / float64(len(read)), read
	}
	util := func(c *cellRun) float64 { return c.util }
	p95 := func(c *cellRun) float64 { return c.p95 }
	var lines []string
	band := func(what string, v float64, ok bool, read ...[]*cellRun) {
		lines = append(lines, fmt.Sprintf("band %s = %.3f", what, v))
		if ok {
			return
		}
		for _, r := range read {
			for _, c := range r {
				c.fail(fmt.Sprintf("band %s = %.3f violated", what, v))
			}
		}
	}
	// Table 1: ABC's cellular throughput is 1.5x Cubic+Codel's in the
	// paper.
	abcU, abcUr := mean("cellular", "ABC", util)
	codelU, codelUr := mean("cellular", "Cubic+Codel", util)
	band("ABC/Cubic+Codel cellular utilization >= 1.3", abcU/codelU, abcU/codelU >= 1.3, abcUr, codelUr)
	// Fig. 9: ABC's p95 delay is below Cubic's.
	abcP, abcPr := mean("cellular", "ABC", p95)
	cubicP, cubicPr := mean("cellular", "Cubic", p95)
	band("ABC/Cubic cellular p95 delay < 1", abcP/cubicP, abcP < cubicP, abcPr, cubicPr)
	// Fig. 10: BBR's Wi-Fi p95 delay is 2.2x ABC's in the paper; checked
	// against ABC's largest delay threshold, the strictest of the three.
	bbrW, bbrWr := mean("wifi", "BBR", p95)
	abcW, abcWr := mean("wifi", "ABC_100", p95)
	band("BBR/ABC_100 Wi-Fi p95 delay >= 2", bbrW/abcW, bbrW/abcW >= 2, bbrWr, abcWr)
	return lines
}

// --- churn: open-loop web flows over one rate link ---

const (
	churnDur     = 60 * sim.Second
	churnLinkBps = 48e6
	churnBgMbps  = 12.0
	// churnLoad is the flows' offered load as a share of the capacity
	// the fluid background leaves them.
	churnLoad = 0.7
	paretoMin = 10e3
	paretoMax = 1e6
	paretoA   = 1.2
)

// churnSetup draws one arrival schedule from the seed — a Poisson process
// conditioned on its count, so the count is fixed by the seed and the
// link load — and builds one cell per scheme over the same schedule.
func churnSetup(seed int64, tr *tracer) ([]cellSpec, error) {
	sp := tr.begin("churn.schedule")
	times, sizes := churnSchedule(rand.New(rand.NewSource(seed)))
	tr.end(sp)
	var cells []cellSpec
	for _, sch := range []string{"ABC", "Cubic"} {
		sp := tr.begin("app.NewReplay")
		rp, err := app.NewReplay(times, sizes)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cellSpec{
			name: "churn/" + sch,
			spec: exp.Spec{
				Seed: seed, Duration: churnDur, RTT: 100 * sim.Millisecond,
				Links: []exp.LinkSpec{{Rate: netem.ConstRate(churnLinkBps)}},
				Workloads: []exp.WorkloadSpec{{
					Scheme: sch, Class: "web", Arrival: rp, Sizes: rp,
					RefMbps: churnLinkBps / 1e6,
				}},
				Background: []exp.BackgroundSpec{{
					Edge: "fwd0", Kind: "const", Flows: 1000000, RateMbps: churnBgMbps,
				}},
			},
		})
	}
	return cells, nil
}

// churnSchedule returns sorted arrival times over the run and their
// bounded-Pareto sizes. Given its count, a Poisson process's arrival
// times are uniform order statistics; the sizes are stratified
// inverse-CDF draws in random order, so each is bounded-Pareto
// distributed while the offered bytes barely vary with the seed.
func churnSchedule(rng *rand.Rand) ([]sim.Time, []int) {
	offeredBps := churnLoad * (churnLinkBps - churnBgMbps*1e6)
	n := int(math.Round(offeredBps / 8 / paretoMean() * churnDur.Seconds()))
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(rng.Int63n(int64(churnDur)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = paretoQuantile((float64(i) + rng.Float64()) / float64(n))
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return times, sizes
}

// withUsers sets the virtual user count of a churn spec's background,
// holding its aggregate rate fixed.
func withUsers(n int) func(*exp.Spec) {
	return func(s *exp.Spec) {
		bg := append([]exp.BackgroundSpec(nil), s.Background...)
		bg[0].Flows = n
		s.Background = bg
	}
}

// paretoQuantile is the bounded Pareto's inverse CDF (the same law as
// app.BoundedPareto).
func paretoQuantile(u float64) int {
	la, ha := math.Pow(paretoMin, paretoA), math.Pow(paretoMax, paretoA)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/paretoA)
	return int(math.Min(math.Max(x, paretoMin), paretoMax))
}

// paretoMean is the bounded Pareto's mean size in bytes.
func paretoMean() float64 {
	l, h, a := paretoMin, paretoMax, paretoA
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// --- mesh: the four-bottleneck sharded ring ---

const meshDur = 20 * sim.Second

// meshRings is the number of independent ring instances per pass.
const meshRings = 2

// meshSetup builds the ShardedMesh ring (flow k crosses bottleneck k and
// a wire into the next pair's junctions, so every path crosses a shard
// cut) at 2 shards, with bottleneck rates drawn from the seed around the
// exp.ShardedMesh rates. Each cell's reference is the same ring on the
// sequential simulator.
func meshSetup(seed int64, _ *tracer) ([]cellSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	base := []float64{21.7e6, 34.1e6, 27.9e6, 40.3e6}
	schemes := []string{"ABC", "Cubic", "ABC", "Cubic"}
	var cells []cellSpec
	for r := 0; r < meshRings; r++ {
		spec := exp.Spec{Seed: seed + int64(r), Duration: meshDur, RTT: 30 * sim.Millisecond, Shards: 2}
		for j := 0; j < 8; j++ {
			spec.Nodes = append(spec.Nodes, fmt.Sprintf("j%d", j))
		}
		for k := 0; k < 4; k++ {
			rate := base[k] * (0.9 + 0.2*rng.Float64())
			spec.Edges = append(spec.Edges,
				exp.EdgeSpec{Name: fmt.Sprintf("bot%d", k),
					From: fmt.Sprintf("j%d", 2*k), To: fmt.Sprintf("j%d", 2*k+1),
					Link: exp.LinkSpec{Rate: netem.ConstRate(rate), Qdisc: exp.QdiscSpec{Kind: "auto"},
						Delay: 1700 * sim.Microsecond}},
				exp.EdgeSpec{Name: fmt.Sprintf("hop%d", k),
					From: fmt.Sprintf("j%d", 2*k+1), To: fmt.Sprintf("j%d", (2*k+2)%8),
					Link: exp.LinkSpec{Kind: "wire", Delay: 6100 * sim.Microsecond}},
			)
			spec.Flows = append(spec.Flows, exp.FlowSpec{
				Scheme: schemes[k],
				Path:   []string{fmt.Sprintf("bot%d", k), fmt.Sprintf("hop%d", k)},
			})
		}
		ref := spec
		ref.Shards = 1
		cells = append(cells, cellSpec{name: fmt.Sprintf("ring%d", r), spec: spec, ref: &ref})
	}
	return cells, nil
}
