// Package exp contains one runner per table/figure of the paper's
// evaluation, built on a generic scenario harness: flows of any
// registered scheme traverse a topology graph (internal/topo) of
// bottleneck links — trace-driven, rate-driven or Wi-Fi modelled — with
// optional impairments, and both the data path and the ACK path are
// explicit routes, so reverse-path bottlenecks and per-flow RTTs are
// first-class. Schemes and queueing disciplines are resolved through the
// cc and qdisc registries; this package constructs nothing by name.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/abc"
	"abc/internal/app"
	"abc/internal/cc"
	_ "abc/internal/explicit" // registers the XCP/XCPw/RCP/VCP schemes and routers
	"abc/internal/metrics"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/qdisc"
	"abc/internal/sched"
	"abc/internal/sim"
	"abc/internal/topo"
	"abc/internal/trace"
	"abc/internal/wifi"
)

// Schemes lists every congestion-control scheme in the paper's
// evaluation, in the order Fig. 9 reports them.
var Schemes = []string{
	"ABC", "XCP", "XCPw", "Cubic+Codel", "Cubic+PIE",
	"Copa", "Sprout", "Vegas", "Verus", "BBR", "PCC", "Cubic",
}

// ExplicitSchemes is the Appendix D comparison set.
var ExplicitSchemes = []string{"ABC", "XCP", "XCPw", "VCP", "RCP"}

// NewAlgorithm constructs the sender algorithm for a registered scheme
// name. It is a thin veneer over the cc registry, kept for callers that
// build topologies by hand (Fig. 12's dynamic flows).
func NewAlgorithm(scheme string) (cc.Algorithm, error) { return cc.New(scheme) }

// QdiscSpec selects the bottleneck discipline for a link.
type QdiscSpec struct {
	// Kind names a registered discipline (qdisc.Kinds lists them), or
	// "auto" (the default) to derive it from the first flow whose data
	// path traverses the link.
	Kind string
	// Buffer is the queue limit in packets (default 250, the paper's
	// emulation buffer).
	Buffer int
	// ABCDelayThreshold overrides dt for ABC routers (Fig. 10 sweeps
	// 20/60/100 ms).
	ABCDelayThreshold sim.Time
	// ABCFeedback selects dequeue- vs enqueue-rate feedback (Fig. 2).
	ABCFeedback abc.FeedbackMode
	// ABCConfig, when non-nil, fully overrides the ABC router
	// configuration (ablation sweeps); Buffer still applies if
	// ABCConfig.Limit is zero.
	ABCConfig *abc.RouterConfig
	// ABCLie makes the ABC router misbehave: the fraction of brake-bound
	// packets it fraudulently promotes back to accelerate. Only the plain
	// "abc" kind consumes it.
	ABCLie float64
}

// build resolves the spec through the qdisc registry. scheme is the
// deriving scheme for "auto" kinds ("" falls back to droptail).
func (q QdiscSpec) build(scheme string, s *sim.Simulator) (qdisc.Qdisc, error) {
	kind := q.Kind
	if kind == "auto" || kind == "" {
		kind = cc.QdiscFor(scheme)
	}
	bs := qdisc.BuildSpec{
		Kind:           kind,
		Buffer:         q.Buffer,
		DelayThreshold: q.ABCDelayThreshold,
		Feedback:       uint8(q.ABCFeedback),
		Rand:           s.Rand(),
	}
	if q.ABCConfig != nil {
		// Only the plain ABC router consumes a full RouterConfig;
		// letting other kinds silently ignore one would be exactly the
		// misconfiguration the explicit spec is meant to prevent.
		if kind != "abc" {
			return nil, fmt.Errorf("exp: ABCConfig set for qdisc kind %q, which does not consume it", kind)
		}
		bs.Config = q.ABCConfig
	}
	if q.ABCLie != 0 {
		// Same contract as ABCConfig: a lying-router fraction on a kind
		// that has no lying mode is a spec error, not a silent no-op.
		if kind != "abc" {
			return nil, fmt.Errorf("exp: ABCLie set for qdisc kind %q, which does not consume it", kind)
		}
		bs.Lie = q.ABCLie
	}
	return qdisc.Build(bs)
}

// WiFiLinkSpec configures a Kind "wifi" link: the modelled 802.11n AP.
type WiFiLinkSpec struct {
	// Config parameterizes the AP (zero fields take wifi defaults).
	Config wifi.LinkConfig
	// Estimate attaches the §4.1 link-rate estimator as the capacity
	// provider for capacity-aware qdiscs (the ABC deployment).
	Estimate bool
	// EstWindow is the estimator's smoothing window (default 40 ms).
	EstWindow sim.Time
}

// LinkSpec describes one bottleneck hop of a chain or mesh edge.
type LinkSpec struct {
	// Kind selects the link model: "trace", "rate", "wifi", or "" to
	// infer from whichever of Trace/Rate/Wifi is set. Mesh edges
	// (Spec.Edges) additionally accept "wire": a pure propagation hop —
	// Delay and Impair only, no bottleneck and no qdisc.
	Kind string
	// Trace drives a delivery-opportunity (Mahimahi-style) link.
	Trace *trace.Trace
	// Rate drives a store-and-forward link with a time-varying bit rate.
	Rate netem.RateFunc
	// Wifi drives an A-MPDU-batching 802.11n link.
	Wifi  *WiFiLinkSpec
	Qdisc QdiscSpec
	// Lookahead enables the PK-ABC future-capacity oracle on trace
	// links (§6.6).
	Lookahead sim.Time
	// Delay is this hop's propagation delay, applied after transmission.
	// The default 0 keeps hops back-to-back, with the path's residual
	// propagation in the per-flow access tails (RTT/2 each way), which
	// preserves the paper's RTT accounting.
	Delay sim.Time
	// Impair adds an impairment stage (jitter, random/burst loss,
	// reordering) in front of the link.
	Impair topo.Impairments
	// Attack installs an adversarial stage on the edge at build time:
	// targeted drops, extra delay or mark-stripping against the flows its
	// Target selects. Retunable mid-run via "attack"/"clear_attack"
	// events.
	Attack *topo.Attack
}

// wire reports whether the spec is a pure propagation hop (mesh only).
func (ls *LinkSpec) wire() bool { return ls.Kind == "wire" }

// kind resolves the link model name.
func (ls *LinkSpec) kind() (string, error) {
	if ls.Kind != "" {
		return ls.Kind, nil
	}
	switch {
	case ls.Trace != nil:
		return "trace", nil
	case ls.Rate != nil:
		return "rate", nil
	case ls.Wifi != nil:
		return "wifi", nil
	}
	return "", fmt.Errorf("exp: link has neither trace, rate nor wifi")
}

// Direction selects which chain carries a flow's data.
type Direction int

const (
	// Forward flows send data over Spec.Links; their ACKs return over
	// Spec.ReverseLinks (or a plain wire when there are none).
	Forward Direction = iota
	// Reverse flows send data over Spec.ReverseLinks; their ACKs return
	// over Spec.Links. They model uplink cross traffic that congests the
	// forward flows' ACK path.
	Reverse
)

// FlowSpec describes one flow.
type FlowSpec struct {
	Scheme string
	// Start/Stop bound the flow's lifetime; Stop 0 means run to the end.
	Start, Stop sim.Time
	// Source is the data source; nil means backlogged.
	Source cc.Source
	// Dir selects the chain carrying this flow's data (default Forward).
	Dir Direction
	// EnterAt is the index of the first link of the flow's chain it
	// traverses (cross-traffic flows can skip upstream links).
	// Out-of-range values are an error.
	EnterAt int
	// ExitAt is the 1-based index of the last link traversed, letting
	// cross traffic leave the path early; 0 means the end of the chain.
	ExitAt int
	// RTT overrides Spec.RTT for this flow (heterogeneous-RTT
	// scenarios): RTT/2 of access latency on each of the flow's data and
	// ACK tails.
	RTT sim.Time
	// Path routes the flow's data over named mesh edges (Spec.Edges), in
	// order. Mesh specs require it; chain specs must leave it empty (they
	// route via Dir/EnterAt/ExitAt instead).
	Path []string
	// AckPath routes the flow's ACKs over named mesh edges. Empty means
	// an uncongested direct wire back to the sender (what a chain without
	// ReverseLinks lowers to).
	AckPath []string
	// Misbehave wraps the constructed algorithm in a misbehaving-sender
	// shim. The only recognized value is "greedy": a sender that ignores
	// brakes, CE and negative explicit feedback (cc.Greedy). Empty means
	// an honest sender.
	Misbehave string
	// Mutate, if set, adjusts the constructed algorithm before the run
	// (ablation switches such as abc.Sender.DisableAI).
	Mutate func(alg cc.Algorithm)
	// App attaches a closed-loop application (ABR video, RPC) that
	// drives this flow's source; mutually exclusive with Source.
	App *AppSpec
}

// EdgeSpec is one directed edge of a mesh topology (Spec.Edges): a named
// hop between two named nodes, carrying a LinkSpec exactly like a chain
// hop does (Kind "wire" makes it a pure propagation edge).
type EdgeSpec struct {
	// Name identifies the edge in FlowSpec.Path / AckPath.
	Name string
	// From and To name the edge's endpoints (Spec.Nodes).
	From, To string
	// Link configures the hop: bottleneck model, qdisc, delay,
	// impairments.
	Link LinkSpec
}

// Spec is a complete scenario: either a chain (Links / ReverseLinks,
// flows routed by Dir/EnterAt/ExitAt) or a mesh (Nodes / Edges, flows
// routed by explicit Path/AckPath edge lists). The two forms are
// mutually exclusive. A chain is shorthand for the mesh it denotes —
// junctions "fwd0".."fwdN" then "rev0".."revM", link i of each chain the
// edge "fwd<i>" / "rev<i>" between junctions i and i+1 — and Run
// compiles it as that mesh.
type Spec struct {
	Seed     int64
	Duration sim.Time
	// Warmup excludes the initial transient from all metrics.
	Warmup sim.Time
	// RTT is the round-trip propagation delay (paper default 100 ms).
	RTT   sim.Time
	Links []LinkSpec
	// ReverseLinks is the ACK-path chain: forward flows' ACKs traverse
	// it in order, and Reverse-direction flows send their data over it.
	// Empty means an uncongested wire, the paper's emulation default.
	ReverseLinks []LinkSpec
	// Nodes and Edges declare a mesh topology: named junctions and
	// directed edges between them. Any directed multigraph is allowed —
	// parallel edges, asymmetric reverse paths, disjoint subpaths through
	// shared junctions. Flows route over it via FlowSpec.Path / AckPath.
	Nodes []string
	Edges []EdgeSpec
	Flows []FlowSpec
	// Workloads spawn finite flows mid-run from open-loop arrival
	// processes, reported per-workload in Result.Workloads.
	Workloads []WorkloadSpec
	// Events is the timed mutation timeline: reroutes, rate and delay
	// changes, link outages, executed on the simulation clock. Edges are
	// addressed by name — mesh edges by their EdgeSpec.Name, chain links
	// as "fwd<i>" / "rev<i>" (link i of Links / ReverseLinks).
	Events []EventSpec
	// Shards splits the simulation into this many parallel event queues
	// advanced under conservative lookahead synchronization (0 or 1 =
	// the sequential simulator, byte-identical to previous releases).
	// Junctions are partitioned automatically (topo.Partition) unless
	// pinned via ShardMap; shard-cut edges must have positive Delay.
	// Sharded specs cannot use Workloads or Sample/Probe time series.
	Shards int
	// ShardMap pins named junctions (mesh node names, or chain junctions
	// "fwd<i>" / "rev<i>") to shard indices; unnamed junctions are placed
	// by the automatic partitioner around the pins.
	ShardMap map[string]int
	// Sample enables time-series collection at this period (0 = off).
	// Negative values are a Spec error, not "off".
	Sample sim.Time
	// Probe, when set, is called once per sample period with the
	// partially built result, letting experiments record custom series
	// (e.g. Fig. 6's wabc/wcubic windows). Setting Probe without Sample
	// is a Spec error — the probe would never fire.
	Probe func(now sim.Time, r *Result)
	// Routing enables the route-computation layer: a policy watches link
	// state (link_down / link_up / set_delay) and recomputes managed
	// flows' routes through the same Router machinery scripted reroute
	// events use, making handover and flap recovery emergent behavior.
	// Sequential-only (rejected at Shards > 1).
	Routing *RoutingSpec
	// Background attaches fluid background aggregates to named edges
	// (mesh edge names, or chain links "fwd<i>" / "rev<i>"): each is a
	// deterministic fixed-step rate process standing in for many
	// virtual flows, draining link capacity and contributing queue
	// occupancy at constant cost regardless of the flow count. Couplers
	// step on each edge's home simulator, so backgrounds compose with
	// Shards.
	Background []BackgroundSpec
}

// FlowResult reports one flow's measurements over [Warmup, Duration].
type FlowResult struct {
	Scheme    string
	Bytes     int64
	TputMbps  float64
	Delay     metrics.DelayRecorder // one-way per-packet delay, ms
	QDelay    metrics.DelayRecorder // accumulated queuing delay, ms
	Lost      int64
	Retx      int64
	Tput      *metrics.Timeseries // when sampling
	Endpoint  *cc.Endpoint
	Algorithm cc.Algorithm
	// App is the closed-loop application bound to the flow, when any
	// (AppSpec kind "abr" → *app.ABR, "rpc" → *app.RPC).
	App app.App
}

// Result is a completed scenario.
type Result struct {
	Spec  Spec
	Flows []FlowResult
	// Workloads reports each open-loop workload in Spec.Workloads order.
	Workloads   []WorkloadResult
	Utilization float64
	// QueueDelayTS samples the first link's standing queue delay when
	// sampling is enabled.
	QueueDelayTS *metrics.Timeseries
	// WeightTS samples a dual queue's ABC weight when present.
	WeightTS *metrics.Timeseries
	// Qdiscs exposes the built disciplines of a chain's forward links,
	// first hop first, or of a mesh's non-wire edges in Spec.Edges order.
	Qdiscs []qdisc.Qdisc
	// ReverseQdiscs exposes the reverse-chain disciplines, first reverse
	// hop first (nil for meshes).
	ReverseQdiscs []qdisc.Qdisc
	// EdgeQdiscs maps edge names — mesh edge names, or chain links
	// "fwd<i>" / "rev<i>" — to their built disciplines (wire edges have
	// no entry).
	EdgeQdiscs map[string]qdisc.Qdisc
	// Drops counts packets that reached a junction with no forwarding
	// entry for their flow and direction. In a static scenario anything
	// non-zero indicates a wiring bug (a flow id without a routed path);
	// under a reroute event timeline it additionally counts packets that
	// were in flight on abandoned edges when their route moved — the
	// handover losses the conservation contract makes explicit.
	Drops int64
	// ImpairDrops counts packets deliberately discarded by impairment
	// stages (lossy-link scenarios).
	ImpairDrops int64
	// LinkDownDrops counts packets dropped at the entry of edges taken
	// down by link_down events.
	LinkDownDrops int64
	// AdvDrops / AdvDelayed / AdvStripped count adversarial-stage actions
	// across all edges: packets dropped, delayed, and accel marks
	// stripped by installed attacks.
	AdvDrops    int64
	AdvDelayed  int64
	AdvStripped int64
	// Adversary splits the run's degradation metrics into victim,
	// bystander and attacker classes; nil when the spec has no adversary
	// (no attacks, no misbehaving flows, no lying routers).
	Adversary *AdversaryReport
	// Events annotates each executed Spec.Events entry in execution
	// order.
	Events []EventResult
	// RouteChanges annotates every route the Spec.Routing policy
	// switched, in execution order — the emergent counterpart of the
	// scripted Events annotations, and what golden digests lock for the
	// autoroute/flapstorm drivers.
	RouteChanges []RouteChangeResult
	// Graph is the compiled topology, available to Probe callbacks and
	// post-run inspection (edge stats, custom traffic injection).
	Graph *topo.Graph
	// Backgrounds reports each fluid aggregate in Spec.Background order:
	// bytes offered/served/dropped and the mean service share it took
	// from its edge.
	Backgrounds []BackgroundResult

	// adv classifies flows into victim/bystander/attacker and collects
	// the per-class workload FCTs behind Adversary; nil for honest specs.
	adv *advCollector

	// bg holds the running couplers so runAndMeasure can collect their
	// stats after the clock stops.
	bg []*bgRunner
}

// AggTputMbps sums flow throughputs.
func (r *Result) AggTputMbps() float64 {
	var t float64
	for i := range r.Flows {
		t += r.Flows[i].TputMbps
	}
	return t
}

// MeanDelayMs averages flow mean delays weighted by sample count.
func (r *Result) MeanDelayMs() float64 {
	var sum float64
	var n int
	for i := range r.Flows {
		c := r.Flows[i].Delay.Count()
		sum += r.Flows[i].Delay.Mean() * float64(c)
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary condenses a result for scatter/bar figures.
func (r *Result) Summary(scheme string, pooled *metrics.DelayRecorder) metrics.Summary {
	return metrics.Summary{
		Scheme:      scheme,
		Utilization: r.Utilization,
		TputMbps:    r.AggTputMbps(),
		MeanMs:      pooled.Mean(),
		P95Ms:       pooled.P95(),
	}
}

// linkFactory returns the topo.LinkFactory for one link spec.
func linkFactory(s *sim.Simulator, ls *LinkSpec, kind string, qd qdisc.Qdisc) (topo.LinkFactory, error) {
	switch kind {
	case "trace":
		if ls.Trace == nil {
			return nil, fmt.Errorf("exp: link kind %q without a trace", kind)
		}
		return func(dst packet.Node) (topo.Link, error) {
			l := netem.NewTraceLink(s, ls.Trace, qd, dst)
			l.Lookahead = ls.Lookahead
			return l, nil
		}, nil
	case "rate":
		if ls.Rate == nil {
			return nil, fmt.Errorf("exp: link kind %q without a rate function", kind)
		}
		return func(dst packet.Node) (topo.Link, error) {
			return netem.NewRateLink(s, ls.Rate, qd, dst), nil
		}, nil
	case "wifi":
		ws := ls.Wifi
		if ws == nil {
			return nil, fmt.Errorf("exp: link kind %q without a wifi spec", kind)
		}
		return func(dst packet.Node) (topo.Link, error) {
			cfg := ws.Config
			var est *wifi.Estimator
			if ws.Estimate {
				win := ws.EstWindow
				if win <= 0 {
					win = 40 * sim.Millisecond
				}
				mb, fs := cfg.MaxBatch, cfg.FrameSize
				if mb <= 0 {
					mb = wifi.DefaultLinkConfig().MaxBatch
				}
				if fs <= 0 {
					fs = packet.MTU
				}
				est = wifi.NewEstimator(mb, fs, win)
			}
			return wifi.NewLink(s, cfg, qd, dst, est), nil
		}, nil
	}
	return nil, fmt.Errorf("exp: unknown link kind %q", kind)
}

// capacityFn returns a capacity sampler (bits/sec) for a link spec, used
// by the queue-delay time series.
func capacityFn(ls *LinkSpec) func(now sim.Time) float64 {
	switch {
	case ls.Trace != nil:
		tr := ls.Trace
		return func(now sim.Time) float64 { return tr.CapacityBps(now, 100*sim.Millisecond) }
	case ls.Rate != nil:
		return ls.Rate
	case ls.Wifi != nil:
		cfg := ls.Wifi.Config
		return func(now sim.Time) float64 { return wifi.TrueCapacityBps(cfg, now) }
	}
	return func(sim.Time) float64 { return 0 }
}

// Run executes the scenario and returns its result along with the pooled
// per-packet delay recorder used for the paper's delay metrics.
func Run(spec Spec) (*Result, *metrics.DelayRecorder, error) {
	if spec.Duration <= 0 {
		spec.Duration = 60 * sim.Second
	}
	if spec.RTT <= 0 {
		spec.RTT = 100 * sim.Millisecond
	}
	if spec.Warmup <= 0 {
		spec.Warmup = 4 * sim.Second
	}
	if spec.Warmup >= spec.Duration {
		return nil, nil, fmt.Errorf("exp: Warmup %v is not before Duration %v; the measurement window is empty", spec.Warmup, spec.Duration)
	}
	// Misconfigurations that used to no-op silently are Spec errors: a
	// probe that never fires and a sampling period that would arm timers
	// in the past are both wiring bugs, not requests for "off".
	if spec.Sample < 0 {
		return nil, nil, fmt.Errorf("exp: negative Sample %v", spec.Sample)
	}
	if spec.Probe != nil && spec.Sample <= 0 {
		return nil, nil, fmt.Errorf("exp: Probe set without Sample; the probe would never fire (set Sample to the probe period)")
	}
	if err := validateRouting(&spec); err != nil {
		return nil, nil, err
	}
	if len(spec.Nodes) > 0 || len(spec.Edges) > 0 {
		if len(spec.Links) > 0 || len(spec.ReverseLinks) > 0 {
			return nil, nil, fmt.Errorf("exp: Links/ReverseLinks (chain) and Nodes/Edges (mesh) are mutually exclusive")
		}
		return runGraph(spec, spec)
	}
	m, err := lowerChain(&spec)
	if err != nil {
		return nil, nil, err
	}
	return runGraph(m, spec)
}

// tightestTraceUtilization sets res.Utilization against the tightest
// trace bottleneck among the first n edges of the mesh-form spec (the
// paper reports utilization of the emulated cell link): the one
// delivering the fewest bytes between Warmup and Duration is the
// reference, and only flows and workloads whose data route traverses it
// count as delivered bytes.
func tightestTraceUtilization(spec *Spec, res *Result, n int) {
	var minCapBytes int64 = -1
	minIdx := -1
	for ei := 0; ei < n; ei++ {
		tr := spec.Edges[ei].Link.Trace
		if tr == nil {
			continue
		}
		capBytes := tr.CountIn(spec.Warmup, spec.Duration) * packet.MTU
		if minCapBytes < 0 || capBytes < minCapBytes {
			minCapBytes = capBytes
			minIdx = ei
		}
	}
	if minCapBytes <= 0 {
		return
	}
	ref := spec.Edges[minIdx].Name
	var delivered int64
	for f := range res.Flows {
		if slices.Contains(spec.Flows[f].Path, ref) {
			delivered += res.Flows[f].Bytes
		}
	}
	for w := range res.Workloads {
		if slices.Contains(spec.Workloads[w].Path, ref) {
			delivered += res.Workloads[w].Bytes
		}
	}
	res.Utilization = metrics.Utilization(delivered, minCapBytes)
}

// flowRoute is one flow's resolved data and ACK edge sequences over the
// topology graph.
type flowRoute struct{ data, ack []int }

// wireFlows constructs every flow's algorithm, endpoint and receiver and
// installs its routes, attaching the per-flow metrics hooks. By the time
// it runs, a flow is just a pair of edge sequences.
//
// On sharded graphs the endpoint lives on the data route's origin shard
// and the receiver on its terminal shard (they inject packets
// synchronously into those junctions), and the pooled/adversary
// recorders are not touched per packet — poolShardedMetrics rebuilds
// them from the per-flow recorders after the run.
func wireFlows(g *topo.Graph, spec *Spec, res *Result, pooled *metrics.DelayRecorder, routes []flowRoute) error {
	sharded := g.Sharded()
	res.Flows = make([]FlowResult, len(spec.Flows))
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		alg, err := cc.New(fs.Scheme)
		if err != nil {
			return err
		}
		if fs.Mutate != nil {
			fs.Mutate(alg)
		}
		switch fs.Misbehave {
		case "":
		case "greedy":
			alg = cc.NewGreedy(alg)
		default:
			return fmt.Errorf("exp: flow %d: unknown Misbehave %q (recognized: \"greedy\")", i, fs.Misbehave)
		}
		fr := &res.Flows[i]
		fr.Scheme = fs.Scheme
		fr.Algorithm = alg

		flowRTT := fs.RTT
		if flowRTT <= 0 {
			flowRTT = spec.RTT
		}

		// Placement: endpoint with the data route's origin junction,
		// receiver with its terminal junction. Unsharded graphs collapse
		// all of this to the one simulator.
		if sharded && len(routes[i].data) == 0 {
			return fmt.Errorf("exp: flow %d: empty data route on a sharded graph", i)
		}
		epSim, recvSim := g.S, g.S
		epShard, recvShard := 0, 0
		if sharded {
			origin := g.Edge(routes[i].data[0]).From.ID
			last := g.Edge(routes[i].data[len(routes[i].data)-1]).To.ID
			epSim, recvSim = g.SimFor(origin), g.SimFor(last)
			epShard, recvShard = g.ShardOf(origin), g.ShardOf(last)
		}

		ep := cc.NewEndpoint(epSim, i, nil, alg)
		if r := g.Recorder(); r != nil {
			ep.SetObs(r, int32(i))
		}
		ep.Src = fs.Source
		if fs.App != nil {
			if fs.Source != nil {
				return fmt.Errorf("exp: flow %d: App and Source are mutually exclusive (the app owns the source)", i)
			}
			a, err := buildApp(epSim, ep, fs.App, spec.Warmup)
			if err != nil {
				return fmt.Errorf("exp: flow %d: %v", i, err)
			}
			fr.App = a
			epSim.At(fs.Start, func() { a.Start(epSim.Now()) })
		}
		fr.Endpoint = ep
		// The ACK route starts at the receiver's junction and terminates
		// at the endpoint, so its injection/terminal shards are the
		// receiver's and endpoint's respectively.
		var ackEntry packet.Node
		if sharded {
			ackEntry, err = g.RouteFlowAt(i, true, routes[i].ack, flowRTT/2, ep, epShard, recvShard)
		} else {
			ackEntry, err = g.RouteFlow(i, true, routes[i].ack, flowRTT/2, ep)
		}
		if err != nil {
			return err
		}
		recv := netem.NewReceiver(recvSim, i, ackEntry)
		start, warm, flowID := fs.Start, spec.Warmup, i
		recv.OnData = func(now sim.Time, p *packet.Packet) {
			if now < warm || now < start {
				return
			}
			fr.Bytes += int64(p.Size)
			d := now - p.SentAt
			fr.Delay.Add(d)
			fr.QDelay.Add(p.QueueDelay)
			if !sharded {
				pooled.Add(d)
				if res.adv != nil {
					res.adv.addDelay(flowID, d)
				}
			}
		}
		var dataEntry packet.Node
		if sharded {
			dataEntry, err = g.RouteFlowAt(i, false, routes[i].data, flowRTT/2, recv, recvShard, epShard)
		} else {
			dataEntry, err = g.RouteFlow(i, false, routes[i].data, flowRTT/2, recv)
		}
		if err != nil {
			return err
		}
		ep.Out = dataEntry

		epSim.At(fs.Start, ep.Start)
		if fs.Stop > 0 {
			epSim.At(fs.Stop, ep.Stop)
		}
		if spec.Sample > 0 {
			counter := &metrics.RateCounter{}
			prev := recv.OnData
			recv.OnData = func(now sim.Time, p *packet.Packet) {
				counter.Add(p.Size)
				if prev != nil {
					prev(now, p)
				}
			}
			fr.Tput = metrics.NewTimeseries(recvSim, spec.Sample, spec.Duration, func(now sim.Time) float64 {
				return counter.SampleBps(now) / 1e6
			})
		}
	}
	return nil
}

// runAndMeasure attaches the scenario-wide time series, runs the
// simulation to spec.Duration and finalizes the per-flow counters.
// firstQ/firstCap describe the scenario's leading bottleneck for the
// standing-queue-delay series; they may be nil when the topology has no
// bottleneck at all (an all-wire mesh). Sharded graphs run under the
// coordinator and pool their run-wide delay recorders from the per-flow
// ones afterwards (checkShardable guarantees no time series here).
func runAndMeasure(g *topo.Graph, spec *Spec, res *Result, pooled *metrics.DelayRecorder, firstQ qdisc.Qdisc, firstCap func(now sim.Time) float64) {
	s := g.S
	if spec.Sample > 0 && firstQ != nil {
		res.QueueDelayTS = metrics.NewTimeseries(s, spec.Sample, spec.Duration, func(now sim.Time) float64 {
			mu := firstCap(now)
			if mu <= 0 {
				return 0
			}
			return float64(firstQ.Bytes()) * 8 / mu * 1000 // ms
		})
		if dq, ok := firstQ.(*sched.DualQueue); ok {
			res.WeightTS = metrics.NewTimeseries(s, spec.Sample, spec.Duration, func(now sim.Time) float64 {
				return dq.WeightABC()
			})
		}
	}

	if spec.Sample > 0 && spec.Probe != nil {
		s.Every(spec.Sample, func() bool {
			if s.Now() > spec.Duration {
				return false
			}
			spec.Probe(s.Now(), res)
			return true
		})
	}

	sampler := scheduleMetrics(g, spec, res)

	if c := g.Coordinator(); c != nil {
		c.Run(spec.Duration)
	} else {
		s.RunUntil(spec.Duration)
	}
	if sampler != nil {
		sampler.sample(spec.Duration)
	}

	// Per-flow throughput over each flow's measured window.
	for i := range res.Flows {
		fr := &res.Flows[i]
		if fr.App != nil {
			// Flush time-based application accounting (playback buffers)
			// before the metrics are read.
			fr.App.Finish(spec.Duration)
		}
		fs := spec.Flows[i]
		from := fs.Start
		if from < spec.Warmup {
			from = spec.Warmup
		}
		to := fs.Stop
		if to == 0 || to > spec.Duration {
			to = spec.Duration
		}
		if to > from {
			fr.TputMbps = float64(fr.Bytes) * 8 / (to - from).Seconds() / 1e6
		}
		fr.Lost = fr.Endpoint.LostPackets
		fr.Retx = fr.Endpoint.RetxPackets
	}
	if g.Sharded() {
		poolShardedMetrics(res, pooled)
	}
	res.Drops = g.UnroutedDrops()
	res.ImpairDrops = g.ImpairDrops()
	res.LinkDownDrops = g.DownDrops()
	res.AdvDrops = g.AdversaryDrops()
	res.AdvDelayed = g.AdversaryDelayed()
	res.AdvStripped = g.AdversaryStripped()
	collectBackgrounds(res)
	if res.adv != nil {
		res.Adversary = res.adv.report(spec, res)
	}
}
