// Graph compilation: every Spec runs as a mesh — an arbitrary directed
// multigraph of named junctions and named edges between them (each
// carrying a full LinkSpec, or Kind "wire" for a pure propagation hop) —
// and every flow routes its data and its ACKs over explicit edge-name
// sequences (FlowSpec.Path / AckPath). Chain-form specs arrive here
// lowered (chain.go). Because ACK paths are real routes over real edges,
// a reverse edge can host an ABC router or a marking qdisc, and the
// accel/brake echo a receiver stamps onto its ACKs (packet.NewAck) is
// subject to demotion there exactly like forward-path data marks — the
// sender ends up pacing to the minimum of marks over the whole round
// trip.
//
// Route well-formedness is validated before any wiring happens
// (topo.Graph.CheckPath): unknown edges, non-contiguous sequences and
// routes that revisit a junction are Spec errors, not silent drops.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/metrics"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/topo"
)

// runGraph compiles and executes a mesh-form spec. caller is the spec
// Run was given, reported as Result.Spec: spec itself for a mesh, or the
// chain spec was lowered from. Defaults have already been applied.
func runGraph(spec, caller Spec) (*Result, *metrics.DelayRecorder, error) {
	if len(spec.Nodes) == 0 {
		return nil, nil, fmt.Errorf("exp: mesh spec has edges but no nodes")
	}
	if len(spec.Edges) == 0 {
		return nil, nil, fmt.Errorf("exp: mesh spec has nodes but no edges")
	}
	if len(spec.Flows) == 0 && len(spec.Workloads) == 0 {
		return nil, nil, fmt.Errorf("exp: no flows in spec")
	}
	// A chain's forward links are its leading edges: they report in
	// Result.Qdiscs and are the only utilization references, and its
	// reverse links report in Result.ReverseQdiscs.
	chain := len(caller.Links) > 0
	fwd := len(spec.Edges)
	if chain {
		fwd = len(caller.Links)
	}

	res := &Result{Spec: caller, adv: newAdvCollector(&spec)}
	pooled := &metrics.DelayRecorder{}
	g, err := newGraph(&spec)
	if err != nil {
		return nil, nil, err
	}
	s := g.S
	res.Graph = g
	attachObs(g)

	nodeID := make(map[string]int, len(spec.Nodes))
	for _, name := range spec.Nodes {
		if name == "" {
			return nil, nil, fmt.Errorf("exp: empty node name")
		}
		if _, dup := nodeID[name]; dup {
			return nil, nil, fmt.Errorf("exp: duplicate node %q", name)
		}
		nodeID[name] = g.AddNode(name)
	}

	edgeID := make(map[string]int, len(spec.Edges))
	res.EdgeQdiscs = make(map[string]qdisc.Qdisc, len(spec.Edges))
	var firstQ qdisc.Qdisc
	var firstCap func(now sim.Time) float64
	for i := range spec.Edges {
		es := &spec.Edges[i]
		if es.Name == "" {
			return nil, nil, fmt.Errorf("exp: edges[%d]: missing name", i)
		}
		if _, dup := edgeID[es.Name]; dup {
			return nil, nil, fmt.Errorf("exp: duplicate edge %q", es.Name)
		}
		from, ok := nodeID[es.From]
		if !ok {
			return nil, nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.From)
		}
		to, ok := nodeID[es.To]
		if !ok {
			return nil, nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.To)
		}
		ls := &es.Link
		var mk topo.LinkFactory
		if ls.wire() {
			if ls.Trace != nil || ls.Rate != nil || ls.Wifi != nil {
				return nil, nil, fmt.Errorf("exp: edge %q: wire edges carry no bottleneck model", es.Name)
			}
			if ls.Qdisc != (QdiscSpec{}) {
				return nil, nil, fmt.Errorf("exp: edge %q: wire edges have no qdisc", es.Name)
			}
		} else {
			kind, err := ls.kind()
			if err != nil {
				return nil, nil, fmt.Errorf("exp: edge %q: %v", es.Name, err)
			}
			// The bottleneck schedules on the feeding junction's shard.
			fromSim := g.SimFor(from)
			// "auto" derives from the edge's first data user, else its
			// first ACK user: a reverse-path router serves the flows
			// whose echoes it carries.
			scheme := routeScheme(&spec, es.Name, false)
			if scheme == "" {
				scheme = routeScheme(&spec, es.Name, true)
			}
			qd, err := ls.Qdisc.build(scheme, fromSim)
			if err != nil {
				return nil, nil, fmt.Errorf("exp: edge %q: %v", es.Name, err)
			}
			mk, err = linkFactory(fromSim, ls, kind, qd)
			if err != nil {
				return nil, nil, fmt.Errorf("exp: edge %q: %v", es.Name, err)
			}
			res.EdgeQdiscs[es.Name] = qd
			if i < fwd {
				res.Qdiscs = append(res.Qdiscs, qd)
			} else {
				res.ReverseQdiscs = append(res.ReverseQdiscs, qd)
			}
			if firstQ == nil {
				firstQ = qd
				firstCap = capacityFn(ls)
			}
		}
		id, err := g.AddEdge(es.Name, from, to, ls.Delay, ls.Impair, mk)
		if err != nil {
			return nil, nil, err
		}
		if ls.Attack != nil {
			if err := ls.Attack.Validate(); err != nil {
				return nil, nil, fmt.Errorf("exp: edge %q: %v", es.Name, err)
			}
			g.Edge(id).SetAttack(ls.Attack)
		}
		edgeID[es.Name] = id
	}

	routes := make([]flowRoute, len(spec.Flows))
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		if fs.Dir != Forward || fs.EnterAt != 0 || fs.ExitAt != 0 {
			return nil, nil, fmt.Errorf("exp: flow %d: Dir/EnterAt/ExitAt are chain fields; mesh flows route via Path/AckPath", i)
		}
		r, err := meshRoute(g, edgeID, fs.Path, fs.AckPath, fmt.Sprintf("flow %d", i), !chain)
		if err != nil {
			return nil, nil, err
		}
		routes[i] = r
	}
	wroutes := make([]flowRoute, len(spec.Workloads))
	for i := range spec.Workloads {
		ws := &spec.Workloads[i]
		if ws.Dir != Forward || ws.EnterAt != 0 || ws.ExitAt != 0 {
			return nil, nil, fmt.Errorf("exp: workload %d: Dir/EnterAt/ExitAt are chain fields; mesh workloads route via Path/AckPath", i)
		}
		r, err := meshRoute(g, edgeID, ws.Path, ws.AckPath, fmt.Sprintf("workload %d", i), !chain)
		if err != nil {
			return nil, nil, err
		}
		wroutes[i] = r
	}
	if err := wireFlows(g, &spec, res, pooled, routes); err != nil {
		return nil, nil, err
	}
	runners, err := startWorkloads(s, g, &spec, res, pooled, wroutes)
	if err != nil {
		return nil, nil, err
	}
	if err := scheduleEvents(s, g, &spec, res, edgeID); err != nil {
		return nil, nil, err
	}
	if err := startBackgrounds(g, &spec, res, edgeID); err != nil {
		return nil, nil, err
	}
	if err := startRouting(g, &spec, res); err != nil {
		return nil, nil, err
	}

	runAndMeasure(g, &spec, res, pooled, firstQ, firstCap)
	if err := finishWorkloads(runners); err != nil {
		return nil, nil, err
	}

	tightestTraceUtilization(&spec, res, fwd)
	return res, pooled, nil
}

// meshRoute resolves one data/ACK path pair over named edges and checks
// their well-formedness. With joined set (user-authored meshes) a
// non-empty ACK route must also pick up where the data route ends: ACKs
// are generated by the receiver at the data path's terminal node, so a
// disconnected AckPath would teleport them. A lowered chain is the one
// exception: its receiver injects ACKs straight into the opposite
// chain's first junction, wherever the data exits (newGraph keeps the
// two junctions on one shard). The ACK route may end anywhere, though —
// it models the congested or marked segment of the return journey, and
// whatever remains after its last edge is the same implicit lossless
// wire an empty AckPath uses for the whole reverse path (RouteFlow's
// tail delay carries the residual RTT).
func meshRoute(g *topo.Graph, edgeID map[string]int, path, ackPath []string, what string, joined bool) (flowRoute, error) {
	if len(path) == 0 {
		return flowRoute{}, fmt.Errorf("exp: %s: mesh flows need a Path", what)
	}
	data, err := resolvePath(g, edgeID, path, what, "path")
	if err != nil {
		return flowRoute{}, err
	}
	ack, err := resolvePath(g, edgeID, ackPath, what, "ack path")
	if err != nil {
		return flowRoute{}, err
	}
	if joined && len(ack) > 0 {
		recv := g.Edge(data[len(data)-1]).To
		if first := g.Edge(ack[0]).From; first != recv {
			return flowRoute{}, fmt.Errorf("exp: %s: ack path starts at node %q but data path ends at %q",
				what, first.Name, recv.Name)
		}
	}
	return flowRoute{data: data, ack: ack}, nil
}

// resolvePath maps a sequence of edge names to edge ids and validates
// route well-formedness up front, so a malformed mesh route fails as a
// Spec error before any wiring happens.
func resolvePath(g *topo.Graph, edgeID map[string]int, names []string, owner, what string) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	ids := make([]int, len(names))
	for j, name := range names {
		id, ok := edgeID[name]
		if !ok {
			return nil, fmt.Errorf("exp: %s %s: unknown edge %q", owner, what, name)
		}
		ids[j] = id
	}
	if err := g.CheckPath(ids); err != nil {
		return nil, fmt.Errorf("exp: %s %s %v", owner, what, err)
	}
	return ids, nil
}

// routeScheme returns the scheme of the first flow, else the first
// workload, whose data route (ACK route, when ack is set) traverses the
// edge, or "" when none does.
func routeScheme(spec *Spec, edge string, ack bool) string {
	route := func(path, ackPath []string) []string {
		if ack {
			return ackPath
		}
		return path
	}
	for f := range spec.Flows {
		if slices.Contains(route(spec.Flows[f].Path, spec.Flows[f].AckPath), edge) {
			return spec.Flows[f].Scheme
		}
	}
	for w := range spec.Workloads {
		if slices.Contains(route(spec.Workloads[w].Path, spec.Workloads[w].AckPath), edge) {
			return spec.Workloads[w].Scheme
		}
	}
	return ""
}
