// Command abcsim runs any of the paper's experiments by ID — or any
// declarative scenario file — and prints the corresponding table rows or
// series.
//
// Usage:
//
//	abcsim -exp list
//	abcsim -exp fig1 [-seed 1] [-dur 60]
//	abcsim -exp fig9 -schemes ABC,Cubic,Cubic+Codel
//	abcsim -exp schemes                      # registered schemes/qdiscs
//	abcsim -scenario examples/scenarios/congested-uplink.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"abc/internal/app"
	"abc/internal/cc"
	"abc/internal/exp"
	"abc/internal/prof"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

var (
	expName  = flag.String("exp", "list", "experiment id (use 'list' to enumerate)")
	seed     = flag.Int64("seed", 1, "simulation seed")
	durSec   = flag.Float64("dur", 60, "run duration in seconds (where applicable)")
	schemes  = flag.String("schemes", "", "comma-separated scheme subset (where applicable)")
	users    = flag.Int("users", 1, "number of Wi-Fi users (fig10)")
	runs     = flag.Int("runs", 3, "runs per point (fig12)")
	scenario = flag.String("scenario", "", "path to a declarative scenario file (overrides -exp)")
	traceNm  = flag.String("trace", "", "cellular trace for the app-workload experiments (default Verizon1)")
	pprofOut = flag.String("pprof", "", "profile the run: CPU to <prefix>.cpu.pprof, heap to <prefix>.heap.pprof")
	rtTrace  = flag.String("runtime-trace", "", "write a runtime execution trace (go tool trace) to this file")
)

func main() {
	flag.Parse()
	stop, err := prof.Start(prof.Config{Pprof: *pprofOut, Trace: *rtTrace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
	obsDone, err := setupObs("abcsim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
	err = run()
	if oerr := obsDone(); err == nil {
		err = oerr
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
}

func schemeList() []string {
	if *schemes == "" {
		return nil
	}
	return strings.Split(*schemes, ",")
}

func dur() sim.Time { return sim.FromSeconds(*durSec) }

type experiment struct {
	name, desc string
	fn         func() error
}

func experiments() []experiment {
	return []experiment{
		{"table1", "§1 summary: normalized throughput/delay vs ABC", runTable1},
		{"fig1", "time series: Cubic, Verus, Cubic+Codel, ABC on LTE", runFig1},
		{"fig2", "dequeue- vs enqueue-rate feedback", runFig2},
		{"fig3", "fairness among ABC flows with/without AI", runFig3},
		{"fig4", "Wi-Fi inter-ACK time vs A-MPDU size", runFig4},
		{"fig5", "Wi-Fi link-rate prediction accuracy", runFig5},
		{"fig6", "coexistence with a non-ABC wired bottleneck", runFig6},
		{"fig7", "ABC + Cubic on a dual-queue bottleneck", runFig7},
		{"fig8", "throughput/delay scatter (down, up, two-hop)", runFig8},
		{"fig9", "utilization and p95 delay across 8 traces", runFig9},
		{"fig10", "Wi-Fi comparison (alternating MCS)", runFig10},
		{"fig11", "tracking with on-off cross traffic", runFig11},
		{"fig12", "max-min vs zombie-list weight policy", runFig12},
		{"fig13", "application-limited ABC flows", runFig13},
		{"fig14", "Wi-Fi comparison (Brownian MCS walk)", runFig14},
		{"fig15", "mean per-packet delay across traces", runFig15},
		{"fig16", "ABC vs explicit schemes (XCP/XCPw/RCP/VCP)", runFig16},
		{"fig17", "square-wave adaptation: ABC vs RCP vs XCPw", runFig17},
		{"fig18", "RTT sensitivity sweep", runFig18},
		{"jain", "§6.5 Jain fairness index, 2-32 flows", runJain},
		{"ablations", "ABC parameter sweeps (dt, delta, eta, token limit, window)", runAblations},
		{"proxied", "§5.1.2 proxied-network ECN encoding vs NS-bit encoding", runProxied},
		{"pkabc", "§6.6 perfect-knowledge ABC", runPKABC},
		{"stability", "Theorem 3.1 stability boundary sweep", runStability},
		{"uplink", "asymmetric cellular: congested uplink carrying the ACKs", runUplink},
		{"mesh", "shared-junction mesh: disjoint multi-hop paths through one hub", runMesh},
		{"markeduplink", "downlink ACKs re-marked by an ABC router on the uplink edge", runMarkedUplink},
		{"heterortt", "heterogeneous-RTT fairness sweep", runHeteroRTT},
		{"lossy", "lossy-link robustness sweep (random + bursty loss)", runLossy},
		{"handover", "mid-run base-station handover via forwarding-table reroute", runHandover},
		{"flap", "flapping link: timed outages on the bottleneck edge", runFlap},
		{"autoroute", "policy-driven failover/failback across a base-station outage", runAutoRoute},
		{"flapstorm", "shortest-path routing under a flap storm with a sub-convergence blip", runFlapStorm},
		{"targeted", "targeted attack on one flow: victim vs bystander degradation", runTargeted},
		{"greedy", "greedy sender ignoring brakes: stolen bandwidth per scheme", runGreedy},
		{"shortflows", "open-loop web-like short flows: FCT and slowdown per scheme", runShortFlows},
		{"video", "ABR video client: bitrate/rebuffer/switch QoE per scheme", runVideo},
		{"rpc", "request-response RPC clients vs a bulk flow: per-call FCT", runRPC},
		{"sharded", "sharded-execution ring at 1/2/4 shards: per-flow results must match", runSharded},
		{"hybrid", "fluid background scaling 0 -> 1M users vs packet-level ABR/RPC foreground", runHybrid},
		{"schemes", "registered schemes and qdisc kinds", runSchemes},
	}
}

func run() error {
	if *scenario != "" {
		return runScenarioFile(*scenario)
	}
	exps := experiments()
	if *expName == "list" {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return nil
	}
	for _, e := range exps {
		if e.name == *expName {
			return e.fn()
		}
	}
	return fmt.Errorf("unknown experiment %q (try -exp list)", *expName)
}

func runTable1() error {
	bars, err := exp.Fig9Bars(schemeList(), nil, dur(), *seed)
	if err != nil {
		return err
	}
	rows := exp.SummaryTable(bars)
	fmt.Printf("%-14s %10s %16s\n", "Scheme", "Norm Tput", "Norm Delay (95%)")
	for _, r := range rows {
		fmt.Printf("%-14s %10.2f %16.2f\n", r.Scheme, r.NormTput, r.NormDelay)
	}
	return nil
}

func runFig1() error {
	runsOut, err := exp.Fig1Timeseries(*seed)
	if err != nil {
		return err
	}
	for _, r := range runsOut {
		fmt.Printf("## %s\n%v\n", r.Scheme, r.Summary)
		fmt.Println("t(s)  tput(Mbps)  qdelay(ms)")
		for i := range r.Tput.Times {
			if i%5 != 0 {
				continue
			}
			fmt.Printf("%5.1f %10.2f %10.1f\n", r.Tput.Times[i], r.Tput.Values[i], r.QDelay.Values[i])
		}
	}
	return nil
}

func runFig2() error {
	r, err := exp.Fig2FeedbackMode(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("dequeue feedback: %v  (p95 queuing %.0f ms)\n", r.Dequeue, r.QDelayP95Dequeue)
	fmt.Printf("enqueue feedback: %v  (p95 queuing %.0f ms)\n", r.Enqueue, r.QDelayP95Enqueue)
	fmt.Printf("enqueue/dequeue p95 queuing-delay ratio: %.2fx (paper: ~2x)\n",
		r.QDelayP95Enqueue/r.QDelayP95Dequeue)
	return nil
}

func runFig3() error {
	for _, ai := range []bool{false, true} {
		r, err := exp.Fig3Fairness(ai, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("additive increase=%v: Jain index (all 5 active) = %.3f\n", ai, r.JainAllActive)
	}
	return nil
}

func runFig4() error {
	r, err := exp.Fig4InterACK(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("samples: %d, fitted slope %.3f ms/frame, theory S/R %.3f ms/frame\n",
		len(r.Samples), r.FittedSlopeMs, r.TheorySlopeMs)
	var batches []int
	for b := range r.MeanTIA {
		batches = append(batches, b)
	}
	sort.Ints(batches)
	for _, b := range batches {
		fmt.Printf("batch=%2d mean TIA=%6.2f ms\n", b, r.MeanTIA[b])
	}
	return nil
}

func runFig5() error {
	pts, err := exp.Fig5RatePrediction(*seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatFig5(pts))
	fmt.Printf("worst backlogged error: %.1f%% (paper: within 5%%)\n",
		exp.Fig5MaxErrorBacklogged(pts)*100)
	return nil
}

func runFig6() error {
	r, err := exp.Fig6NonABCBottleneck(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("tracking error vs ideal: %.1f%%, p95 queuing delay %.0f ms\n",
		r.TrackError*100, r.QDelayP95)
	fmt.Println("t(s)  tput(Mbps)  wabc  wcubic  wireless(Mbps)")
	for i := range r.WABC.Times {
		if i%10 != 0 {
			continue
		}
		fmt.Printf("%5.1f %10.2f %6.0f %7.0f %8.1f\n",
			r.WABC.Times[i], r.Tput.Values[min(i, len(r.Tput.Values)-1)],
			r.WABC.Values[i], r.WCubic.Values[i], r.WirelessRate.Values[i])
	}
	return nil
}

func runFig7() error {
	r, err := exp.Fig7Coexistence(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("steady throughputs (Mbps): %v\n", r.SteadyTput)
	fmt.Printf("Jain=%.3f  ABC queue p95=%.0f ms  Cubic queue p95=%.0f ms\n",
		r.Jain, r.ABCQDelayP95, r.CubicQDelayP95)
	return nil
}

func runFig8() error {
	for kind, label := range map[exp.ScatterKind]string{
		exp.Downlink: "downlink", exp.Uplink: "uplink", exp.UplinkDownlink: "uplink+downlink",
	} {
		sums, err := exp.Fig8Scatter(kind, schemeList(), dur(), *seed)
		if err != nil {
			return err
		}
		fmt.Printf("## %s\n", label)
		for _, s := range sums {
			fmt.Println(s)
		}
	}
	return nil
}

func runFig9() error {
	bars, err := exp.Fig9Bars(schemeList(), nil, dur(), *seed)
	if err != nil {
		return err
	}
	printBars(bars)
	return nil
}

func printBars(bars *exp.BarsResult) {
	fmt.Printf("%-14s %8s %12s %12s\n", "Scheme", "AvgUtil", "AvgMean(ms)", "AvgP95(ms)")
	for _, sch := range bars.Schemes {
		u, m, p := bars.Average(sch)
		fmt.Printf("%-14s %7.1f%% %12.0f %12.0f\n", sch, u*100, m, p)
	}
}

func runFig10() error {
	sums, err := exp.Fig10WiFi(*users, exp.AlternatingMCS(*seed), dur(), *seed)
	if err != nil {
		return err
	}
	for _, s := range sums {
		fmt.Println(s)
	}
	return nil
}

func runFig11() error {
	r, err := exp.Fig11CrossTraffic(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("tracking error vs ideal: %.1f%%\n", r.TrackError*100)
	fmt.Println("t(s)  tput(Mbps)  ideal(Mbps)")
	for i := range r.Ideal.Times {
		if i%4 != 0 || i >= len(r.Tput.Values) {
			continue
		}
		fmt.Printf("%5.1f %10.2f %10.1f\n", r.Ideal.Times[i], r.Tput.Values[i], r.Ideal.Values[i])
	}
	return nil
}

func runFig12() error {
	cfg := exp.DefaultFig12Config()
	cfg.Runs = *runs
	cfg.Duration = dur()
	cfg.Seed = *seed
	for _, pol := range []string{"maxmin", "zombie"} {
		pts, err := exp.Fig12WeightPolicy(pol, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("## %s\n", pol)
		for _, p := range pts {
			fmt.Printf("load=%5.1f%%  ABC %5.2f±%.2f Mbps   Cubic %5.2f±%.2f Mbps\n",
				p.OfferedLoad*100, p.ABCMean, p.ABCStd, p.CubicMean, p.CubicStd)
		}
	}
	return nil
}

func runFig13() error {
	r, err := exp.Fig13AppLimited(50, 1.0, dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("util=%.1f%%  backlogged=%.2f Mbps  app-limited agg=%.2f Mbps  p95 queuing=%.0f ms\n",
		r.Utilization*100, r.BackloggedTputMbps, r.AppLimitedTputMbps, r.QDelayP95)
	return nil
}

func runFig14() error {
	sums, err := exp.Fig10WiFi(1, exp.BrownianMCS(*seed), dur(), *seed)
	if err != nil {
		return err
	}
	for _, s := range sums {
		fmt.Println(s)
	}
	return nil
}

func runFig15() error {
	bars, err := exp.Fig9Bars(schemeList(), nil, dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s\n", "Scheme", "AvgMean(ms)")
	for _, sch := range bars.Schemes {
		_, m, _ := bars.Average(sch)
		fmt.Printf("%-14s %12.0f\n", sch, m)
	}
	return nil
}

func runFig16() error {
	bars, err := exp.Fig9Bars(exp.ExplicitSchemes, nil, dur(), *seed)
	if err != nil {
		return err
	}
	printBars(bars)
	return nil
}

func runFig17() error {
	rs, err := exp.Fig17SquareWave(schemeList(), *seed)
	if err != nil {
		return err
	}
	for _, r := range rs {
		fmt.Printf("%-6s util=%.1f%%  p95 queuing=%.0f ms\n",
			r.Scheme, r.Summary.Utilization*100, r.QDelayP95)
	}
	return nil
}

func runFig18() error {
	schemes := schemeList()
	if len(schemes) == 0 {
		schemes = exp.Schemes
	}
	out, err := exp.Fig18RTTSweep(schemes, dur(), *seed)
	if err != nil {
		return err
	}
	rtts := []int{20, 50, 100, 200}
	for _, rtt := range rtts {
		fmt.Printf("## RTT %d ms\n", rtt)
		for _, sch := range schemes {
			s := out[rtt][sch]
			fmt.Printf("%-14s util=%5.1f%%  p95=%6.0f ms\n", sch, s.Utilization*100, s.P95Ms)
		}
	}
	return nil
}

func runJain() error {
	for _, n := range []int{2, 4, 8, 16, 32} {
		idx, err := exp.JainFairness(n, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("flows=%2d  Jain index=%.3f\n", n, idx)
	}
	return nil
}

func runPKABC() error {
	r, err := exp.PKABC(dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("ABC:    %v (p95 queuing %.0f ms)\n", r.ABC, r.QDelayP95ABC)
	fmt.Printf("PK-ABC: %v (p95 queuing %.0f ms)\n", r.PK, r.QDelayP95PK)
	return nil
}

func runAblations() error {
	sweeps := []struct {
		name string
		fn   func(sim.Time, int64) ([]exp.AblationPoint, error)
	}{
		{"delay threshold dt", exp.AblateDelayThreshold},
		{"drain constant delta", exp.AblateDelta},
		{"target utilization eta", exp.AblateEta},
		{"token bucket limit", exp.AblateTokenLimit},
		{"measurement window T", exp.AblateWindow},
	}
	for _, sw := range sweeps {
		pts, err := sw.fn(dur(), *seed)
		if err != nil {
			return err
		}
		fmt.Printf("## %s\n", sw.name)
		for _, p := range pts {
			fmt.Printf("%-12s=%7.2f  util=%5.1f%%  qdelay mean=%6.1f ms  p95=%6.1f ms\n",
				p.Param, p.Value, p.Util*100, p.MeanMs, p.P95Ms)
		}
	}
	return nil
}

func runProxied() error {
	std, prox, err := exp.ProxiedComparison(dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Println(std)
	fmt.Println(prox)
	return nil
}

func runStability() error {
	r := exp.StabilityRegion()
	fmt.Printf("empirical boundary: delta/tau = %.2f (Theorem 3.1: 2/3)\n", r.Boundary)
	for _, p := range r.Points {
		mark := "unstable"
		if p.Converged {
			mark = "stable"
		}
		fmt.Printf("delta/tau=%.2f  %-8s  peak-to-peak=%.4f s\n", p.DeltaOverTau, mark, p.PeakToPeak)
	}
	return nil
}

func runUplink() error {
	out, err := exp.UplinkCongestedACK(schemeList(), 2, dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %8s %10s %12s %12s %10s\n",
		"Scheme", "DownUtil", "Down Mbps", "p95 q (ms)", "AckDrops", "Up Mbps")
	for _, sch := range names {
		r := out[sch]
		fmt.Printf("%-14s %7.1f%% %10.2f %12.0f %12d %10.2f\n",
			sch, r.Down.Utilization*100, r.Down.TputMbps, r.QDelayP95, r.AckPathDrops, r.UpTputMbps)
	}
	return nil
}

func runMesh() error {
	out, err := exp.MeshSharedJunction(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatMeshResult(sch, out[sch]))
	}
	return nil
}

func runMarkedUplink() error {
	out, err := exp.MarkedUplink(schemeList(), 2, dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %8s %10s %12s %10s %10s %10s\n",
		"Scheme", "DownUtil", "Down Mbps", "p95 q (ms)", "RevBrakes", "Demoted", "Up Mbps")
	for _, sch := range names {
		r := out[sch]
		fmt.Printf("%-14s %7.1f%% %10.2f %12.0f %10d %10d %10.2f\n",
			sch, r.Down.Utilization*100, r.Down.TputMbps, r.QDelayP95,
			r.ReverseBrakes, r.EchoDemoted, r.UpTputMbps)
	}
	return nil
}

func runHeteroRTT() error {
	list := schemeList()
	if len(list) == 0 {
		list = []string{"ABC", "Cubic"}
	}
	for _, sch := range list {
		r, err := exp.HeteroRTTFairness(sch, nil, dur(), *seed)
		if err != nil {
			return err
		}
		fmt.Printf("## %s (Jain=%.3f, worst-flow p95 queuing %.0f ms)\n", sch, r.Jain, r.MaxQDelayP95)
		for i, ms := range r.RTTsMs {
			fmt.Printf("rtt=%3d ms  %6.2f Mbps\n", ms, r.TputMbps[i])
		}
	}
	return nil
}

func runLossy() error {
	for _, bursty := range []bool{false, true} {
		pts, err := exp.LossyLink(schemeList(), nil, bursty, dur(), *seed)
		if err != nil {
			return err
		}
		kind := "random"
		if bursty {
			kind = "bursty"
		}
		fmt.Printf("## %s loss\n", kind)
		for _, p := range pts {
			fmt.Printf("%-14s loss=%5.3f  tput=%6.2f Mbps  p95=%6.0f ms  dropped=%d\n",
				p.Scheme, p.LossRate, p.TputMbps, p.P95Ms, p.ImpairDrops)
		}
	}
	return nil
}

func runHandover() error {
	out, err := exp.Handover(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatHandoverResult(sch, out[sch]))
	}
	for _, ev := range out[names[0]].Events {
		fmt.Printf("event @%7.0f ms  %-10s %s\n", ev.AtMs, ev.Kind, ev.Target)
	}
	return nil
}

func runFlap() error {
	out, err := exp.LinkFlap(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatFlapResult(sch, out[sch]))
	}
	return nil
}

func runAutoRoute() error {
	out, err := exp.AutoRoute(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatAutoRouteResult(sch, out[sch]))
	}
	for _, rc := range out[names[0]].RouteChanges {
		printRouteChange(rc)
	}
	return nil
}

func runFlapStorm() error {
	out, err := exp.FlapStorm(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatFlapStormResult(sch, out[sch]))
	}
	for _, rc := range out[names[0]].RouteChanges {
		printRouteChange(rc)
	}
	return nil
}

func printRouteChange(rc exp.RouteChangeResult) {
	dir := "data"
	if rc.Ack {
		dir = "ack"
	}
	fmt.Printf("route @%7.0f ms  flow %d %-4s -> %s\n",
		rc.AtMs, rc.Flow, dir, strings.Join(rc.Path, ">"))
}

func runTargeted() error {
	out, err := exp.Targeted(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatTargetedResult(sch, out[sch]))
	}
	return nil
}

func runGreedy() error {
	out, err := exp.Greedy(schemeList(), dur(), *seed)
	if err != nil {
		return err
	}
	var names []string
	for sch := range out {
		names = append(names, sch)
	}
	sort.Strings(names)
	for _, sch := range names {
		fmt.Print(exp.FormatGreedyResult(sch, out[sch]))
	}
	return nil
}

func runShortFlows() error {
	rows, err := exp.ShortFlows(schemeList(), *traceNm, dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8s %12s %12s %10s %10s %10s\n",
		"Scheme", "Flows", "FCT mean", "FCT p95", "Slowdown", "q p95(ms)", "Bulk Mbps")
	for _, r := range rows {
		fmt.Printf("%-14s %8d %9.0f ms %9.0f ms %10.2f %10.0f %10.2f\n",
			r.Scheme, r.FCT.Count, r.FCT.MeanMs, r.FCT.P95Ms, r.FCT.P95Slowdown,
			r.QDelayP95, r.LongTputMbps)
	}
	return nil
}

func runVideo() error {
	rows, err := exp.VideoExp(schemeList(), *traceNm, dur(), *seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-14s %v  queue p95=%4.0f ms\n", r.Scheme, r.QoE, r.QDelayP95)
	}
	return nil
}

func runRPC() error {
	rows, err := exp.RPCExp(schemeList(), *traceNm, dur(), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8s %12s %12s %10s %10s\n",
		"Scheme", "Calls", "FCT mean", "FCT p95", "q p95(ms)", "Bulk Mbps")
	for _, r := range rows {
		fmt.Printf("%-14s %8d %9.0f ms %9.0f ms %10.0f %10.2f\n",
			r.Scheme, r.Calls, r.FCT.MeanMs, r.FCT.P95Ms, r.QDelayP95, r.LongTputMbps)
	}
	return nil
}

func runHybrid() error {
	fmt.Printf("%10s %10s %8s %10s %10s %10s %9s %10s\n",
		"Users", "BgMbps", "BgShare", "VideoKbps", "RPC mean", "RPC p95", "q p95(ms)", "wall")
	for _, users := range exp.HybridScales {
		t0 := time.Now()
		cells, err := exp.Hybrid("", []int{users}, dur(), *seed)
		if err != nil {
			return err
		}
		c := cells[0]
		fmt.Printf("%10d %10.3f %7.1f%% %10.0f %7.0f ms %7.0f ms %9.0f %10v\n",
			c.Users, c.BgOfferedMbps, c.BgMeanShare*100, c.VideoQoE.MeanKbps,
			c.RPCFCT.MeanMs, c.RPCFCT.P95Ms, c.QDelayP95,
			time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

func runSharded() error {
	var base *exp.ShardedMeshResult
	for _, shards := range []int{1, 2, 4} {
		r, err := exp.ShardedMesh(shards, dur(), *seed)
		if err != nil {
			return err
		}
		fmt.Printf("shards=%d (drops=%d)\n", r.Shards, r.Drops)
		fmt.Printf("  %-8s %-12s %10s %10s %10s %6s\n",
			"Scheme", "Path", "Mbps", "mean(ms)", "p95(ms)", "lost")
		for _, f := range r.Flows {
			fmt.Printf("  %-8s %-12s %10.2f %10.1f %10.1f %6d\n",
				f.Scheme, f.Path, f.TputMbps, f.MeanMs, f.P95Ms, f.Lost)
		}
		if base == nil {
			base = r
			continue
		}
		for i := range r.Flows {
			got, want := r.Flows[i], base.Flows[i]
			got.Scheme, got.Path = want.Scheme, want.Path
			if got != want {
				return fmt.Errorf("flow %d diverged between shards=1 and shards=%d", i, r.Shards)
			}
		}
		fmt.Printf("  identical to shards=1\n")
	}
	return nil
}

func runSchemes() error {
	fmt.Println("schemes:", strings.Join(cc.SchemeNames(), " "))
	fmt.Println("qdiscs: ", strings.Join(qdisc.Kinds(), " "))
	return nil
}

func runScenarioFile(path string) error {
	sc, err := exp.LoadScenario(path)
	if err != nil {
		return err
	}
	spec, err := sc.Compile()
	if err != nil {
		return err
	}
	res, pooled, err := exp.Run(spec)
	if err != nil {
		return err
	}
	if sc.Name != "" {
		fmt.Printf("## %s\n", sc.Name)
	}
	fmt.Printf("%-4s %-14s %-12s %10s %12s %12s %8s\n",
		"Flow", "Scheme", "Route", "Tput Mbps", "delay p95", "queue p95", "lost")
	for i := range res.Flows {
		f := &res.Flows[i]
		route := "forward"
		if spec.Flows[i].Dir == exp.Reverse {
			route = "reverse"
		}
		if len(spec.Flows[i].Path) > 0 {
			route = strings.Join(spec.Flows[i].Path, ">")
		}
		fmt.Printf("%-4d %-14s %-12s %10.2f %9.0f ms %9.0f ms %8d\n",
			i, f.Scheme, route, f.TputMbps, f.Delay.P95(), f.QDelay.P95(), f.Lost)
	}
	for i := range res.Flows {
		f := &res.Flows[i]
		switch a := f.App.(type) {
		case *app.ABR:
			fmt.Printf("flow %d video QoE: %v\n", i, a.QoE())
		case *app.RPC:
			fmt.Printf("flow %d rpc: calls=%d  FCT mean %.0f ms, p95 %.0f ms\n",
				i, a.Calls, a.FCT().Mean(), a.FCT().P95())
		}
	}
	for i := range res.Workloads {
		w := &res.Workloads[i]
		fmt.Printf("workload %d: %v  (spawned=%d completed=%d active=%d rejected=%d)\n",
			i, w.Stats(), w.Spawned, w.Completed, w.Active, w.Rejected)
	}
	for _, bg := range res.Backgrounds {
		fmt.Printf("background %s (%s, %d flows): offered %.1f MB, served %.1f MB, dropped %.1f MB, mean share %.1f%%\n",
			bg.Edge, bg.Kind, bg.Flows, bg.OfferedMB, bg.ServedMB, bg.DroppedMB, bg.MeanShare*100)
	}
	if res.Utilization > 0 {
		fmt.Printf("utilization: %.1f%%\n", res.Utilization*100)
	}
	fmt.Printf("pooled delay: mean %.0f ms, p95 %.0f ms\n", pooled.Mean(), pooled.P95())
	if res.ImpairDrops > 0 {
		fmt.Printf("impairment drops: %d\n", res.ImpairDrops)
	}
	for _, ev := range res.Events {
		fmt.Printf("event @%7.0f ms  %-10s %s\n", ev.AtMs, ev.Kind, ev.Target)
	}
	for _, rc := range res.RouteChanges {
		printRouteChange(rc)
	}
	if res.LinkDownDrops > 0 {
		fmt.Printf("link-down drops: %d\n", res.LinkDownDrops)
	}
	if res.Drops > 0 {
		if len(spec.Events) > 0 {
			fmt.Printf("unrouted drops: %d (includes packets in flight across reroutes)\n", res.Drops)
		} else {
			fmt.Printf("UNROUTED DROPS: %d (wiring bug in the scenario)\n", res.Drops)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
