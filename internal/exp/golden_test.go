// Golden-figure regression suite: every figure driver and scenario
// driver runs at a fixed seed and short duration, its result is
// serialized to canonical JSON (encoding/json sorts map keys, floats use
// the shortest round-trip form) and SHA-256-digested, and the digest is
// diffed against testdata/golden.json. A refactor that changes any
// output byte — a float, a counter, an ordering — fails here mechanically
// instead of relying on ad-hoc byte comparisons between branches.
//
// After an *intentional* output change, regenerate with
//
//	go test ./internal/exp/ -run TestGoldenFigures -update-golden
//
// and commit the new testdata/golden.json together with the change that
// explains it.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"abc/internal/netem"
	"abc/internal/qdisc"
	"abc/internal/sim"
	"abc/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.json with recomputed digests")

const goldenPath = "testdata/golden.json"

type goldenCase struct {
	name string
	run  func() (any, error)
}

// goldenCases enumerates every locked-down driver. Durations are short —
// the digest locks determinism and output compatibility, not steady-state
// physics (the physics assertions live in the figure tests).
func goldenCases() []goldenCase {
	const short = 8 * sim.Second
	fig12 := func(policy string) (any, error) {
		cfg := DefaultFig12Config()
		cfg.Runs, cfg.Duration, cfg.Seed = 1, short, 1
		return Fig12WeightPolicy(policy, cfg)
	}
	return []goldenCase{
		{"fig1-timeseries", func() (any, error) { return Fig1Timeseries(1) }},
		{"fig2-feedback-mode", func() (any, error) { return Fig2FeedbackMode(1) }},
		{"fig6-nonabc-bottleneck", func() (any, error) { return Fig6NonABCBottleneck(1) }},
		{"fig8-scatter-downlink", func() (any, error) {
			return Fig8Scatter(Downlink, []string{"ABC", "Cubic"}, short, 1)
		}},
		{"fig9-bars", func() (any, error) { return Fig9Bars([]string{"ABC", "Cubic"}, nil, short, 1) }},
		{"fig10-wifi", func() (any, error) { return Fig10WiFi(1, AlternatingMCS(1), short, 1) }},
		{"fig11-cross-traffic", func() (any, error) { return Fig11CrossTraffic(1) }},
		{"fig12-maxmin", func() (any, error) { return fig12("maxmin") }},
		{"fig12-zombie", func() (any, error) { return fig12("zombie") }},
		{"fig17-square-wave", func() (any, error) { return Fig17SquareWave([]string{"ABC", "RCP"}, 1) }},
		{"uplink-congested-ack", func() (any, error) {
			return UplinkCongestedACK([]string{"ABC", "Cubic"}, 2, short, 1)
		}},
		// Past the driver's 10 s warmup, so the window is not empty.
		{"hetero-rtt", func() (any, error) { return HeteroRTTFairness("ABC", nil, 12*sim.Second, 1) }},
		{"lossy-random", func() (any, error) { return LossyLink([]string{"ABC"}, nil, false, short, 1) }},
		{"lossy-bursty", func() (any, error) { return LossyLink([]string{"ABC"}, nil, true, short, 1) }},
		{"mesh-shared-junction", func() (any, error) {
			return MeshSharedJunction([]string{"ABC", "Cubic"}, short, 1)
		}},
		{"marked-uplink", func() (any, error) { return MarkedUplink([]string{"ABC", "Cubic"}, 2, short, 1) }},
		{"handover", func() (any, error) { return Handover([]string{"ABC", "Cubic"}, short, 1) }},
		{"flap", func() (any, error) { return LinkFlap([]string{"ABC", "Cubic"}, short, 1) }},
		{"autoroute", func() (any, error) { return AutoRoute([]string{"ABC", "Cubic"}, short, 1) }},
		{"flapstorm", func() (any, error) { return FlapStorm([]string{"ABC", "Cubic"}, short, 1) }},
		{"targeted", func() (any, error) { return Targeted([]string{"ABC", "Cubic"}, short, 1) }},
		{"greedy", func() (any, error) { return Greedy([]string{"ABC", "XCP"}, short, 1) }},
		{"app-shortflows", func() (any, error) { return ShortFlows([]string{"ABC", "Cubic"}, "", short, 1) }},
		{"app-video", func() (any, error) { return VideoExp([]string{"ABC", "Cubic"}, "", short, 1) }},
		{"app-rpc", func() (any, error) { return RPCExp([]string{"ABC", "Cubic"}, "", short, 1) }},
		{"hybrid", func() (any, error) { return Hybrid("", nil, short, 1) }},
		// The three sharded-mesh entries digest the same result with the
		// shard count masked, so the corpus itself asserts the sharded
		// runtime's digest invariance: all three lines must stay equal.
		{"sharded-mesh-s1", func() (any, error) { return shardedMeshGolden(1, short) }},
		{"sharded-mesh-s2", func() (any, error) { return shardedMeshGolden(2, short) }},
		{"sharded-mesh-s4", func() (any, error) { return shardedMeshGolden(4, short) }},
		// The chain seams: a sharded chain (its junctions "fwd0"/"fwd1"
		// cut across two shards) and a chain whose early-exiting flow ACKs
		// into rev0, whose ACK-only reverse link keeps a droptail "auto"
		// qdisc, and whose tighter reverse trace must not become the
		// utilization reference.
		{"chain-sharded-s2", func() (any, error) {
			spec := targetedSpec("ABC", short, 1)
			spec.Links[0].Delay = 4 * sim.Millisecond
			spec.Links[0].Attack = targetedAttack()
			spec.Shards = 2
			return chainGolden(spec)
		}},
		{"chain-ack-jump", func() (any, error) { return chainGolden(ackJumpSpec(short)) }},
	}
}

// ackJumpSpec is a two-link chain with a two-link reverse chain, every
// qdisc "auto": flow 1 leaves the forward chain after fwd0 and ACKs
// into rev0, flow 2 sends reverse data over rev0 only, so rev1 carries
// nothing but ACKs. rev0's trace is tighter than fwd0's.
func ackJumpSpec(dur sim.Time) Spec {
	auto := QdiscSpec{Kind: "auto"}
	return Spec{
		Seed:     1,
		Duration: dur,
		Warmup:   2 * sim.Second,
		Links: []LinkSpec{
			{Trace: trace.MustNamedCellular("Verizon1"), Qdisc: auto},
			{Rate: netem.ConstRate(20e6), Qdisc: auto},
		},
		ReverseLinks: []LinkSpec{
			{Trace: trace.MustNamedCellular("Verizon4"), Qdisc: auto},
			{Rate: netem.ConstRate(10e6), Qdisc: auto},
		},
		Flows: []FlowSpec{
			{Scheme: "ABC"},
			{Scheme: "Cubic", ExitAt: 1},
			{Scheme: "ABC", Dir: Reverse, ExitAt: 1},
		},
	}
}

// chainGolden runs one spec and digests what its topology compile
// decides: per-flow results, utilization, drop and adversary counters,
// and the discipline built on each link.
func chainGolden(spec Spec) (any, error) {
	res, pooled, err := Run(spec)
	if err != nil {
		return nil, err
	}
	kinds := func(qs []qdisc.Qdisc) []string {
		out := make([]string, len(qs))
		for i, q := range qs {
			out[i] = fmt.Sprintf("%T", q)
		}
		return out
	}
	return struct {
		Flows                             []flowDigest
		Qdiscs, ReverseQdiscs             []string
		Adversary                         *AdversaryReport
		AdvDrops, AdvDelayed, AdvStripped int64
	}{
		digest(res, pooled.Mean(), pooled.P95()),
		kinds(res.Qdiscs), kinds(res.ReverseQdiscs),
		res.Adversary, res.AdvDrops, res.AdvDelayed, res.AdvStripped,
	}, nil
}

// shardedMeshGolden runs the sharded-mesh driver and masks the shard
// count, the one field allowed to differ between the s1/s2/s4 entries.
func shardedMeshGolden(shards int, dur sim.Time) (any, error) {
	r, err := ShardedMesh(shards, dur, 1)
	if err != nil {
		return nil, err
	}
	c := *r
	c.Shards = 0
	return &c, nil
}

// goldenDigest canonicalizes a driver result and digests it. The byte
// length comes along so a result type that quietly stops marshalling
// (unexported fields, nil maps) fails loudly instead of locking down an
// empty object.
func goldenDigest(v any) (digest string, size int, err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), len(b), nil
}

// TestGoldenFigures recomputes every case and diffs its digest against
// the checked-in corpus. With -update-golden it rewrites the corpus
// instead of diffing.
func TestGoldenFigures(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("no golden corpus (%v); generate one with -update-golden", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt %s: %v", goldenPath, err)
		}
	}
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			v, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			d, n, err := goldenDigest(v)
			if err != nil {
				t.Fatal(err)
			}
			if n <= 2 {
				t.Fatalf("result serialized to %d bytes — digest locks down nothing", n)
			}
			got[c.name] = d
			if *updateGolden {
				return
			}
			switch w, ok := want[c.name]; {
			case !ok:
				t.Errorf("no golden digest for %q; add it with -update-golden", c.name)
			case w != d:
				t.Errorf("output digest changed:\n got %s\nwant %s\nif intentional, regenerate with -update-golden and commit the new corpus", d, w)
			}
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	// Stale corpus entries mean a driver was renamed or dropped without
	// regenerating — as much a silent drift as a changed digest.
	var stale []string
	for name := range want {
		if _, ok := got[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("stale golden entry %q has no driver; regenerate with -update-golden", name)
	}
}

// TestGoldenParallelModes asserts the digests are a pure function of the
// spec, independent of harness scheduling: sequential (Parallelism=1) and
// worker-pool (Parallelism=4) runs of multi-cell drivers must produce
// byte-identical serializations. Combined with the CI -race run of this
// package, this is the acceptance bar for every future harness change.
func TestGoldenParallelModes(t *testing.T) {
	pick := map[string]bool{
		"fig9-bars": true, "mesh-shared-junction": true, "marked-uplink": true,
		"app-shortflows": true, "app-video": true, "app-rpc": true,
		"handover": true, "flap": true, "targeted": true, "greedy": true,
		"autoroute": true, "flapstorm": true, "hybrid": true,
	}
	defer func(p int) { Parallelism = p }(Parallelism)
	for _, c := range goldenCases() {
		if !pick[c.name] {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			Parallelism = 1
			v1, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			seq, _, err := goldenDigest(v1)
			if err != nil {
				t.Fatal(err)
			}
			Parallelism = 4
			v2, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			par, _, err := goldenDigest(v2)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("sequential digest %s != parallel digest %s", seq, par)
			}
		})
	}
}
