package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"abc/internal/abc"
	"abc/internal/exp"
	"abc/internal/explicit"
	"abc/internal/metrics"
	"abc/internal/qdisc"
	"abc/internal/sched"
)

// counters are exact per-layer counts read from the program's public
// accessors after a cell ran.
type counters struct {
	// pkts counts data packets the bottleneck qdiscs handed to their
	// links (qdisc.Stats.DequeuedPackets): every bottleneck in these
	// workloads carries data only, so this is the delivered data-packet
	// count, reachable for spawned flows too.
	pkts int64
	// events counts executed simulator events, over all shards;
	// shardEvents splits them per shard on sharded cells.
	events      uint64
	shardEvents []uint64
	rounds      uint64
	// sent/acked/retx/lost/inflight are cc.Endpoint counters of the
	// spec's static flows (spawned workload flows' endpoints are not
	// reachable); inflight is what was outstanding when the cell ended.
	sent, acked, retx int64
	lost, inflight    int64
	accel, brake      int64
	qdrops            int64
	samples           int64
	routes            int64
	topoDrops         int64
	spawned, done     int64
	servedMB          float64
}

func (c *counters) add(o *counters) {
	c.pkts += o.pkts
	c.events += o.events
	for i, e := range o.shardEvents {
		if i == len(c.shardEvents) {
			c.shardEvents = append(c.shardEvents, 0)
		}
		c.shardEvents[i] += e
	}
	c.rounds += o.rounds
	c.sent += o.sent
	c.acked += o.acked
	c.retx += o.retx
	c.lost += o.lost
	c.inflight += o.inflight
	c.accel += o.accel
	c.brake += o.brake
	c.qdrops += o.qdrops
	c.samples += o.samples
	c.routes += o.routes
	c.topoDrops += o.topoDrops
	c.spawned += o.spawned
	c.done += o.done
	c.servedMB += o.servedMB
}

// output is the part of a cell's result its digest covers: every
// per-flow, per-workload, per-qdisc and per-background number a figure
// could print. Shard-dependent quantities (event counts, the pooled
// recorder, which sharded runs rebuild by merging) are left out, so a
// ring's digest is the same at 1 and 2 shards.
type output struct {
	Flows       []flowOut
	Workloads   []workloadOut
	Backgrounds []exp.BackgroundResult
	Qdiscs      []qdisc.Stats
	Marks       [2]int64
	Drops       [4]int64
}

type flowOut struct {
	Scheme                         string
	Bytes, Sent, Acked, Retx, Lost int64
	DelayMeanMs, DelayP95Ms        float64
	QDelayMeanMs, QDelayP95Ms      float64
}

type workloadOut struct {
	Class                                string
	Spawned, Completed, Rejected, Active int
	Bytes                                int64
	FCTMeanMs, FCTP50Ms, FCTP99Ms        float64
	SlowdownP99                          float64
}

// cellRun is one executed cell.
type cellRun struct {
	cs     *cellSpec
	wall   time.Duration
	cnt    counters
	digest string
	// util and p95 feed the paper-anchored bands (corpus).
	util, p95 float64
	fails     []string
}

func (c *cellRun) fail(why string) { c.fails = append(c.fails, why) }

// runCell runs one spec and reads its outputs, counters and digest.
// Spans: the exp.Run call and the output read are children of "cell".
func runCell(cs *cellSpec, spec exp.Spec, tr *tracer) *cellRun {
	c := &cellRun{cs: cs}
	t0 := time.Now()
	sp := tr.begin("cell")
	run := tr.begin("exp.Run")
	res, pooled, err := exp.Run(spec)
	tr.end(run)
	if err != nil {
		tr.end(sp)
		c.wall = time.Since(t0)
		c.fail(err.Error())
		return c
	}
	rd := tr.begin("outputs")
	out, err := read(res, pooled, &c.cnt)
	tr.end(rd)
	if err != nil {
		c.fail(err.Error())
	}
	dg := tr.begin("digest")
	c.digest, err = digest(out)
	tr.end(dg)
	if err != nil {
		c.fail(err.Error())
	}
	tr.end(sp)
	c.wall = time.Since(t0)

	c.util = res.Utilization
	if len(res.Flows) > 0 {
		c.p95 = res.Flows[0].Delay.P95()
	}
	// Invariants that hold on every run of these specs: no timeline, no
	// impairments, so no junction, outage, impairment or adversary drops;
	// every spawned flow is accounted for.
	for i, d := range out.Drops {
		if d != 0 {
			c.fail(fmt.Sprintf("graph drops[%d] = %d on a static spec", i, d))
		}
	}
	for _, w := range out.Workloads {
		if w.Spawned != w.Completed+w.Active+w.Rejected {
			c.fail(fmt.Sprintf("workload %s: spawned %d != completed %d + active %d + rejected %d",
				w.Class, w.Spawned, w.Completed, w.Active, w.Rejected))
		}
	}
	if c.cnt.pkts == 0 {
		c.fail("no data packets delivered")
	}
	// Every static flow crosses exactly one qdisc, so each acknowledged
	// packet was dequeued once, and a dequeued packet that was not
	// acknowledged was still outstanding at the end or was declared lost
	// (a spurious loss puts a second copy through the qdisc).
	if len(out.Workloads) == 0 {
		n := &c.cnt
		if n.pkts < n.acked || n.pkts > n.acked+n.inflight+n.lost {
			c.fail(fmt.Sprintf("qdiscs dequeued %d data packets; flows acked %d with %d in flight and %d declared lost",
				n.pkts, n.acked, n.inflight, n.lost))
		}
	}
	return c
}

// read extracts a result's digest output and exact counters.
func read(res *exp.Result, pooled *metrics.DelayRecorder, cnt *counters) (output, error) {
	var out output
	g := res.Graph
	out.Drops = [4]int64{g.UnroutedDrops(), g.DownDrops(), g.ImpairDrops(), g.AdversaryDrops()}
	cnt.topoDrops = out.Drops[0] + out.Drops[1] + out.Drops[2] + out.Drops[3]
	if c := g.Coordinator(); c != nil {
		cnt.rounds = c.Rounds()
		for i := 0; i < c.Shards(); i++ {
			e := c.Shard(i).Executed()
			cnt.shardEvents = append(cnt.shardEvents, e)
			cnt.events += e
		}
	} else {
		cnt.events = g.S.Executed()
		cnt.shardEvents = []uint64{cnt.events}
	}

	// A mesh lists each bottleneck's qdisc in both Qdiscs and
	// EdgeQdiscs; each is counted once.
	qds := append(append([]qdisc.Qdisc(nil), res.Qdiscs...), res.ReverseQdiscs...)
	seen := make(map[qdisc.Qdisc]bool, len(qds))
	for _, q := range qds {
		seen[q] = true
	}
	names := make([]string, 0, len(res.EdgeQdiscs))
	for n := range res.EdgeQdiscs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if q := res.EdgeQdiscs[n]; !seen[q] {
			seen[q] = true
			qds = append(qds, q)
		}
	}
	for _, q := range qds {
		st, err := qstats(q)
		if err != nil {
			return out, err
		}
		out.Qdiscs = append(out.Qdiscs, st)
		cnt.pkts += st.DequeuedPackets
		cnt.qdrops += st.DroppedPackets
		if r, ok := q.(*abc.Router); ok {
			out.Marks[0] += r.AccelMarked
			out.Marks[1] += r.BrakeMarked
		}
	}
	cnt.accel, cnt.brake = out.Marks[0], out.Marks[1]

	cnt.samples = int64(pooled.Count())
	for i := range res.Flows {
		f := &res.Flows[i]
		ep := f.Endpoint
		out.Flows = append(out.Flows, flowOut{
			Scheme: f.Scheme, Bytes: f.Bytes,
			Sent: ep.SentPackets, Acked: ep.AckedPackets, Retx: ep.RetxPackets, Lost: ep.LostPackets,
			DelayMeanMs: f.Delay.Mean(), DelayP95Ms: f.Delay.P95(),
			QDelayMeanMs: f.QDelay.Mean(), QDelayP95Ms: f.QDelay.P95(),
		})
		cnt.sent += ep.SentPackets
		cnt.acked += ep.AckedPackets
		cnt.retx += ep.RetxPackets
		cnt.lost += ep.LostPackets
		cnt.inflight += int64(ep.Inflight())
		cnt.samples += int64(f.Delay.Count() + f.QDelay.Count())
	}
	nflows := len(res.Flows)
	for i := range res.Workloads {
		w := &res.Workloads[i]
		out.Workloads = append(out.Workloads, workloadOut{
			Class: w.Class, Spawned: w.Spawned, Completed: w.Completed, Rejected: w.Rejected, Active: w.Active,
			Bytes:     w.Bytes,
			FCTMeanMs: w.FCT.Mean(), FCTP50Ms: w.FCT.Percentile(50), FCTP99Ms: w.FCT.Percentile(99),
			SlowdownP99: w.Slowdown.Percentile(99),
		})
		cnt.spawned += int64(w.Spawned)
		cnt.done += int64(w.Completed)
		cnt.samples += int64(w.FCT.Count() + w.Slowdown.Count() + w.QDelay.Count())
		nflows += w.Spawned
	}
	// Spawned flows take the ids after the static ones.
	for id := 0; id < nflows; id++ {
		for _, ack := range []bool{false, true} {
			if _, ok := g.RouteOf(id, ack); ok {
				cnt.routes++
			}
		}
	}
	out.Backgrounds = res.Backgrounds
	for _, b := range res.Backgrounds {
		cnt.servedMB += b.ServedMB
	}
	return out, nil
}

// qstats reads the statistics of every discipline these workloads
// build; an unknown discipline is an error rather than a silent zero.
func qstats(q qdisc.Qdisc) (qdisc.Stats, error) {
	switch q := q.(type) {
	case *qdisc.DropTail:
		return q.Stats, nil
	case *qdisc.CoDel:
		return q.Stats, nil
	case *qdisc.PIE:
		return q.Stats, nil
	case *qdisc.RED:
		return q.Stats, nil
	case *abc.Router:
		return q.Stats, nil
	case *explicit.XCPRouter:
		return q.Stats, nil
	case *explicit.RCPRouter:
		return q.Stats, nil
	case *explicit.VCPRouter:
		return q.Stats, nil
	case *sched.DualQueue:
		return q.Stats, nil
	}
	return qdisc.Stats{}, fmt.Errorf("no statistics accessor for qdisc %T", q)
}

// digest is the SHA-256 of the output's canonical JSON (encoding/json
// writes floats in their shortest round-trip form).
func digest(out output) (string, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
