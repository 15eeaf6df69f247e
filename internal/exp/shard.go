// Sharded compilation: Spec.Shards > 1 splits the simulation into
// per-shard event queues advanced in parallel by a sim.Coordinator
// (conservative lookahead synchronization; see internal/sim/shard.go).
// This file owns the spec-level plumbing: which specs are shardable,
// how a mesh-form spec (chains arrive lowered, with junctions
// "fwd<i>"/"rev<i>" that ShardMap can pin) becomes a partitioner input,
// and how per-flow metrics are pooled deterministically after a sharded
// run.
//
// Placement rules the compiler follows:
//   - A junction lives on the shard the partitioner assigns it
//     (topo.Partition: zero-delay edges are never cut, Spec.ShardMap
//     pins nodes manually).
//   - A flow's endpoint lives with its data route's origin junction and
//     its receiver with the data route's last junction, because both
//     inject packets synchronously into their neighbor.
//   - A receiver also injects ACKs synchronously into the ACK route's
//     origin junction, so that junction must share the receiver's
//     shard. A user-authored mesh guarantees it structurally (the ACK
//     path starts where the data path ends); where the two differ — a
//     lowered chain's ACKs enter the opposite chain at its junction 0 —
//     the partitioner input gets a zero-delay tie between them.
//
// Pooled metrics (the pooled delay recorder, adversary class recorders)
// are not written per packet in sharded mode — receivers on different
// shards would race — but merged from the per-flow recorders after the
// run, in flow order (metrics.DelayRecorder.Merge), which keeps the
// result a pure function of (spec, seed, shard count).
package exp

import (
	"fmt"

	"abc/internal/metrics"
	"abc/internal/sim"
	"abc/internal/topo"
)

// maxShards bounds Spec.Shards to something a machine could plausibly
// run; beyond this a typo is far more likely than a 128-core box.
const maxShards = 64

// checkShardable rejects spec features the sharded path does not
// support. Workloads spawn flows mid-run (route installs and harness
// RNG draws from arbitrary shard contexts); Sample/Probe time series
// interleave per-packet callbacks across flows on one clock. Both keep
// their sequential semantics at Shards <= 1.
func checkShardable(spec *Spec) error {
	if spec.Shards > maxShards {
		return fmt.Errorf("exp: Shards %d exceeds the maximum %d", spec.Shards, maxShards)
	}
	if len(spec.Workloads) > 0 {
		return fmt.Errorf("exp: Shards > 1 does not support Workloads (mid-run flow spawning is inherently cross-shard); run with Shards 1")
	}
	if spec.Sample > 0 || spec.Probe != nil {
		return fmt.Errorf("exp: Shards > 1 does not support Sample/Probe time series; run with Shards 1")
	}
	if spec.Routing != nil {
		return fmt.Errorf("exp: Shards > 1 does not support Routing (route recomputation mutates tables across shards); run with Shards 1")
	}
	return nil
}

// shardOverride translates Spec.ShardMap node names into partitioner
// node indices via the name → index mapping of the compiled topology.
func shardOverride(spec *Spec, nodeIdx map[string]int) (map[int]int, error) {
	if len(spec.ShardMap) == 0 {
		return nil, nil
	}
	o := make(map[int]int, len(spec.ShardMap))
	for name, sh := range spec.ShardMap {
		id, ok := nodeIdx[name]
		if !ok {
			return nil, fmt.Errorf("exp: ShardMap: unknown node %q", name)
		}
		o[id] = sh
	}
	return o, nil
}

// newGraph builds the topology graph for a mesh-form spec: the plain
// single-simulator graph at Shards <= 1, otherwise one whose junctions
// (spec.Nodes, in declaration order) are partitioned over the shards.
// Node and edge name validation beyond what the partitioner needs stays
// with runGraph.
func newGraph(spec *Spec) (*topo.Graph, error) {
	if spec.Shards <= 1 {
		return topo.New(sim.New(spec.Seed)), nil
	}
	if err := checkShardable(spec); err != nil {
		return nil, err
	}
	nodeIdx := make(map[string]int, len(spec.Nodes))
	for i, name := range spec.Nodes {
		if _, dup := nodeIdx[name]; name == "" || dup {
			// Defer to runGraph's canonical validation error.
			return topo.New(sim.New(spec.Seed)), nil
		}
		nodeIdx[name] = i
	}
	edgeIdx := make(map[string]int, len(spec.Edges))
	pedges := make([]topo.PartEdge, 0, len(spec.Edges))
	for i := range spec.Edges {
		es := &spec.Edges[i]
		from, ok := nodeIdx[es.From]
		if !ok {
			return nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.From)
		}
		to, ok := nodeIdx[es.To]
		if !ok {
			return nil, fmt.Errorf("exp: edge %q: unknown node %q", es.Name, es.To)
		}
		edgeIdx[es.Name] = i
		pedges = append(pedges, topo.PartEdge{From: from, To: to, Delay: es.Link.Delay})
	}
	// Ties: a receiver injects ACKs synchronously into its ACK route's
	// origin junction, so where that is not the data route's terminal
	// junction (a lowered chain's ACKs enter the opposite chain at its
	// junction 0) a zero-delay tie keeps the two on one shard. Unknown
	// edge names are left for route resolution to reject.
	for i := range spec.Flows {
		fs := &spec.Flows[i]
		if len(fs.Path) == 0 || len(fs.AckPath) == 0 {
			continue
		}
		last, ok := edgeIdx[fs.Path[len(fs.Path)-1]]
		first, ack := edgeIdx[fs.AckPath[0]]
		if ok && ack && pedges[last].To != pedges[first].From {
			pedges = append(pedges, topo.PartEdge{From: pedges[last].To, To: pedges[first].From})
		}
	}
	override, err := shardOverride(spec, nodeIdx)
	if err != nil {
		return nil, err
	}
	assign, err := topo.Partition(len(spec.Nodes), pedges, spec.Shards, override)
	if err != nil {
		return nil, err
	}
	return topo.NewSharded(sim.NewCoordinator(spec.Seed, spec.Shards), assign), nil
}

// poolShardedMetrics rebuilds the run-wide pooled recorders from the
// per-flow recorders after a sharded run, in flow order — the
// deterministic replacement for the per-packet pooled/adversary updates
// the sequential receivers perform inline.
func poolShardedMetrics(res *Result, pooled *metrics.DelayRecorder) {
	for i := range res.Flows {
		fr := &res.Flows[i]
		pooled.Merge(&fr.Delay)
		if res.adv != nil {
			res.adv.mergeDelay(i, &fr.Delay)
		}
	}
}
