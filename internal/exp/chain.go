// Chain lowering: a chain-form Spec (Links / ReverseLinks, flows routed
// by Dir/EnterAt/ExitAt) is the mesh whose junctions are "fwd<i>" /
// "rev<i>" and whose edges carry the same names, so Run compiles it by
// rewriting it into that mesh and handing it to the one graph compiler.
package exp

import (
	"fmt"

	"abc/internal/cc"
)

// chainName names junction or link i of a chain: "fwd<i>" on Links,
// "rev<i>" on ReverseLinks. Link i runs from junction i to junction i+1.
func chainName(dir Direction, i int) string {
	prefix := "fwd"
	if dir == Reverse {
		prefix = "rev"
	}
	return fmt.Sprintf("%s%d", prefix, i)
}

// lowerChain returns the mesh form of a chain spec. Junctions and links
// are emitted forward chain first, then the reverse chain, which fixes
// node ids, edge ids and qdisc build order. A flow's data takes links
// [EnterAt, ExitAt) of its direction's chain and its ACKs take the whole
// opposite chain (a direct wire when there is none); the ACK route
// starts at that chain's junction 0 wherever the data exits. "auto"
// qdiscs resolve from the first flow, then workload, whose data
// traverses the link — never from ACK traffic, so a link that carries
// only ACKs stays droptail. The caller's spec and its slices are left
// unmodified.
func lowerChain(spec *Spec) (Spec, error) {
	if len(spec.Links) == 0 {
		return Spec{}, fmt.Errorf("exp: no links in spec")
	}
	m := *spec
	m.Links, m.ReverseLinks = nil, nil
	var names [2][]string
	for dir, links := range [2][]LinkSpec{spec.Links, spec.ReverseLinks} {
		d := Direction(dir)
		for i := range links {
			if links[i].wire() {
				return Spec{}, fmt.Errorf("exp: link %s: wire links are mesh-only", chainName(d, i))
			}
			if i == 0 {
				m.Nodes = append(m.Nodes, chainName(d, 0))
			}
			m.Nodes = append(m.Nodes, chainName(d, i+1))
			m.Edges = append(m.Edges, EdgeSpec{Name: chainName(d, i), From: chainName(d, i), To: chainName(d, i+1), Link: links[i]})
			names[d] = append(names[d], chainName(d, i))
		}
	}
	route := func(what string, dir Direction, enterAt, exitAt int) (path, ack []string, err error) {
		data, back := names[Forward], names[Reverse]
		chain := "links"
		if dir == Reverse {
			data, back, chain = back, data, "reverse links"
		}
		exit := exitAt
		if exit == 0 {
			exit = len(data)
		}
		switch {
		case len(data) == 0:
			return nil, nil, fmt.Errorf("exp: %s: no %s for its direction", what, chain)
		case enterAt < 0 || enterAt >= len(data):
			return nil, nil, fmt.Errorf("exp: %s: EnterAt %d out of range [0, %d)", what, enterAt, len(data))
		case exit < 0 || exit > len(data):
			return nil, nil, fmt.Errorf("exp: %s: ExitAt %d out of range [1, %d]", what, exitAt, len(data))
		case exit <= enterAt:
			return nil, nil, fmt.Errorf("exp: %s: ExitAt %d does not reach past EnterAt %d", what, exitAt, enterAt)
		}
		return data[enterAt:exit:exit], back, nil
	}
	m.Flows = append([]FlowSpec(nil), spec.Flows...)
	for i := range m.Flows {
		fs := &m.Flows[i]
		if len(fs.Path) > 0 || len(fs.AckPath) > 0 {
			return Spec{}, fmt.Errorf("exp: flow %d: Path/AckPath route over mesh edges; chain flows use Dir/EnterAt/ExitAt", i)
		}
		var err error
		if fs.Path, fs.AckPath, err = route(fmt.Sprintf("flow %d", i), fs.Dir, fs.EnterAt, fs.ExitAt); err != nil {
			return Spec{}, err
		}
		fs.Dir, fs.EnterAt, fs.ExitAt = Forward, 0, 0
	}
	m.Workloads = append([]WorkloadSpec(nil), spec.Workloads...)
	for i := range m.Workloads {
		ws := &m.Workloads[i]
		if len(ws.Path) > 0 || len(ws.AckPath) > 0 {
			return Spec{}, fmt.Errorf("exp: workload %d: Path/AckPath route over mesh edges; chain workloads use Dir/EnterAt/ExitAt", i)
		}
		var err error
		if ws.Path, ws.AckPath, err = route(fmt.Sprintf("workload %d", i), ws.Dir, ws.EnterAt, ws.ExitAt); err != nil {
			return Spec{}, err
		}
		ws.Dir, ws.EnterAt, ws.ExitAt = Forward, 0, 0
	}
	for i := range m.Edges {
		if q := &m.Edges[i].Link.Qdisc; q.Kind == "auto" || q.Kind == "" {
			q.Kind = cc.QdiscFor(routeScheme(&m, m.Edges[i].Name, false))
		}
	}
	return m, nil
}
