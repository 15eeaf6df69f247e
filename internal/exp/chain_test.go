package exp

import (
	"reflect"
	"strings"
	"testing"

	"abc/internal/trace"
)

// TestLowerChain checks the mesh a chain spec lowers to: junctions and
// edges in fwd-then-rev order, per-flow and per-workload data and ACK
// routes, "auto" qdiscs resolved from data users only, and the caller's
// spec left untouched.
func TestLowerChain(t *testing.T) {
	tr := trace.Constant("lower", 10e6)
	link := func() LinkSpec { return LinkSpec{Trace: tr, Qdisc: QdiscSpec{Kind: "auto"}} }
	type route struct{ path, ack []string }
	cases := []struct {
		name      string
		spec      func() Spec
		nodes     []string
		edges     [][3]string // name, from, to
		kinds     []string    // resolved qdisc kind per edge
		flows     []route
		workloads []route
	}{
		{
			name:  "forward only",
			spec:  func() Spec { return Spec{Links: []LinkSpec{link(), link()}, Flows: []FlowSpec{{Scheme: "ABC"}}} },
			nodes: []string{"fwd0", "fwd1", "fwd2"},
			edges: [][3]string{{"fwd0", "fwd0", "fwd1"}, {"fwd1", "fwd1", "fwd2"}},
			kinds: []string{"abc", "abc"},
			flows: []route{{path: []string{"fwd0", "fwd1"}}},
		},
		{
			name: "forward and reverse",
			spec: func() Spec {
				return Spec{
					Links:        []LinkSpec{link()},
					ReverseLinks: []LinkSpec{link(), link()},
					Flows:        []FlowSpec{{Scheme: "ABC"}, {Scheme: "ABC", Dir: Reverse, EnterAt: 1}},
				}
			},
			nodes: []string{"fwd0", "fwd1", "rev0", "rev1", "rev2"},
			edges: [][3]string{{"fwd0", "fwd0", "fwd1"}, {"rev0", "rev0", "rev1"}, {"rev1", "rev1", "rev2"}},
			// rev0 carries only flow 0's ACKs: droptail, not the ABC of
			// the flow whose ACKs cross it.
			kinds: []string{"abc", "droptail", "abc"},
			flows: []route{
				{path: []string{"fwd0"}, ack: []string{"rev0", "rev1"}},
				{path: []string{"rev1"}, ack: []string{"fwd0"}},
			},
		},
		{
			name: "partial spans",
			spec: func() Spec {
				return Spec{
					Links: []LinkSpec{link(), link(), {Trace: tr, Qdisc: QdiscSpec{Kind: "pie"}}},
					Flows: []FlowSpec{
						{Scheme: "Cubic", ExitAt: 1},
						{Scheme: "ABC", EnterAt: 1, ExitAt: 2},
						{Scheme: "ABC", EnterAt: 2},
					},
				}
			},
			nodes: []string{"fwd0", "fwd1", "fwd2", "fwd3"},
			edges: [][3]string{{"fwd0", "fwd0", "fwd1"}, {"fwd1", "fwd1", "fwd2"}, {"fwd2", "fwd2", "fwd3"}},
			kinds: []string{"droptail", "abc", "pie"},
			flows: []route{
				{path: []string{"fwd0"}},
				{path: []string{"fwd1"}},
				{path: []string{"fwd2"}},
			},
		},
		{
			name: "workloads",
			spec: func() Spec {
				return Spec{
					Links:        []LinkSpec{link(), link()},
					ReverseLinks: []LinkSpec{link()},
					Workloads: []WorkloadSpec{
						{Scheme: "ABC", EnterAt: 1},
						{Scheme: "Cubic", Dir: Reverse},
					},
				}
			},
			nodes: []string{"fwd0", "fwd1", "fwd2", "rev0", "rev1"},
			edges: [][3]string{{"fwd0", "fwd0", "fwd1"}, {"fwd1", "fwd1", "fwd2"}, {"rev0", "rev0", "rev1"}},
			kinds: []string{"droptail", "abc", "droptail"},
			workloads: []route{
				{path: []string{"fwd1"}, ack: []string{"rev0"}},
				{path: []string{"rev0"}, ack: []string{"fwd0", "fwd1"}},
			},
		},
	}
	for _, tc := range cases {
		spec := tc.spec()
		m, err := lowerChain(&spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(spec, tc.spec()) {
			t.Errorf("%s: lowerChain modified the caller's spec", tc.name)
		}
		if len(m.Links) != 0 || len(m.ReverseLinks) != 0 {
			t.Errorf("%s: lowered spec keeps chain links", tc.name)
		}
		if !reflect.DeepEqual(m.Nodes, tc.nodes) {
			t.Errorf("%s: nodes = %v, want %v", tc.name, m.Nodes, tc.nodes)
		}
		var edges [][3]string
		var kinds []string
		for _, e := range m.Edges {
			edges = append(edges, [3]string{e.Name, e.From, e.To})
			kinds = append(kinds, e.Link.Qdisc.Kind)
		}
		if !reflect.DeepEqual(edges, tc.edges) {
			t.Errorf("%s: edges = %v, want %v", tc.name, edges, tc.edges)
		}
		if !reflect.DeepEqual(kinds, tc.kinds) {
			t.Errorf("%s: qdisc kinds = %v, want %v", tc.name, kinds, tc.kinds)
		}
		var flows, workloads []route
		for _, f := range m.Flows {
			if f.Dir != Forward || f.EnterAt != 0 || f.ExitAt != 0 {
				t.Errorf("%s: lowered flow keeps chain routing fields: %+v", tc.name, f)
			}
			flows = append(flows, route{f.Path, f.AckPath})
		}
		for _, w := range m.Workloads {
			if w.Dir != Forward || w.EnterAt != 0 || w.ExitAt != 0 {
				t.Errorf("%s: lowered workload keeps chain routing fields: %+v", tc.name, w)
			}
			workloads = append(workloads, route{w.Path, w.AckPath})
		}
		if !reflect.DeepEqual(flows, tc.flows) {
			t.Errorf("%s: flow routes = %v, want %v", tc.name, flows, tc.flows)
		}
		if !reflect.DeepEqual(workloads, tc.workloads) {
			t.Errorf("%s: workload routes = %v, want %v", tc.name, workloads, tc.workloads)
		}
	}

	// A chain link cannot be a pure propagation hop: "wire" stays a
	// mesh-only kind rather than leaking into chains through the lowering.
	spec := Spec{Links: []LinkSpec{{Kind: "wire"}}, Flows: []FlowSpec{{Scheme: "ABC"}}}
	if _, err := lowerChain(&spec); err == nil || !strings.Contains(err.Error(), "link fwd0: wire links are mesh-only") {
		t.Errorf("wire chain link: err = %v", err)
	}
}
