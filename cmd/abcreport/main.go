// Command abcreport runs the full evaluation sweep — every table and
// figure — and prints an EXPERIMENTS.md-style report with the paper's
// headline claims checked against the measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"abc/internal/exp"
	"abc/internal/obs"
	"abc/internal/prof"
	"abc/internal/sim"
)

var (
	seed        = flag.Int64("seed", 1, "simulation seed")
	fast        = flag.Bool("fast", false, "shorter runs (CI-sized)")
	pprofOut    = flag.String("pprof", "", "profile the sweep: CPU to <prefix>.cpu.pprof, heap to <prefix>.heap.pprof")
	rtTrace     = flag.String("runtime-trace", "", "write a runtime execution trace (go tool trace) to this file")
	metricsAddr = flag.String("metrics", "", "serve live sweep metrics on this address (e.g. 127.0.0.1:9090 or :0) and print progress to stderr")
)

func main() {
	flag.Parse()
	stop, err := prof.Start(prof.Config{Pprof: *pprofOut, Trace: *rtTrace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcreport:", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		addr, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "abcreport:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[obs] abcreport: serving metrics on http://%s/metrics\n", addr)
		exp.EnableMetrics(obs.Default(), sim.Second)
		defer obs.StartProgress(os.Stderr, obs.Default(), 5*time.Second)()
	}
	err = run()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcreport:", err)
		os.Exit(1)
	}
}

func run() error {
	dur := 60 * sim.Second
	wifiDur := 45 * sim.Second
	if *fast {
		dur = 20 * sim.Second
		wifiDur = 15 * sim.Second
	}

	fmt.Println("# ABC reproduction report")
	fmt.Println()

	fmt.Println("## Fig. 9 / Table 1 — cellular corpus")
	bars, err := exp.Fig9Bars(nil, nil, dur, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8s %12s %12s %10s %10s\n",
		"Scheme", "AvgUtil", "Mean(ms)", "P95(ms)", "NormTput", "NormP95")
	rows := exp.SummaryTable(bars)
	for i, sch := range bars.Schemes {
		u, m, p := bars.Average(sch)
		fmt.Printf("%-14s %7.1f%% %12.0f %12.0f %10.2f %10.2f\n",
			sch, u*100, m, p, rows[i].NormTput, rows[i].NormDelay)
	}
	fmt.Println()

	fmt.Println("## Fig. 2 — feedback-mode ablation")
	f2, err := exp.Fig2FeedbackMode(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("dequeue p95 queuing %.0f ms, enqueue %.0f ms (ratio %.2fx; paper ~2x)\n\n",
		f2.QDelayP95Dequeue, f2.QDelayP95Enqueue, f2.QDelayP95Enqueue/f2.QDelayP95Dequeue)

	fmt.Println("## Fig. 3 — additive increase and fairness")
	for _, ai := range []bool{false, true} {
		r, err := exp.Fig3Fairness(ai, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("AI=%v: Jain=%.3f\n", ai, r.JainAllActive)
	}
	fmt.Println()

	fmt.Println("## Fig. 4/5 — Wi-Fi estimator")
	f4, err := exp.Fig4InterACK(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("TIA slope %.3f ms/frame (S/R = %.3f)\n", f4.FittedSlopeMs, f4.TheorySlopeMs)
	f5, err := exp.Fig5RatePrediction(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("worst backlogged prediction error %.1f%% (paper: 5%%)\n\n",
		exp.Fig5MaxErrorBacklogged(f5)*100)

	fmt.Println("## Fig. 6/11 — non-ABC bottlenecks")
	f6, err := exp.Fig6NonABCBottleneck(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("fig6 tracking error %.1f%%\n", f6.TrackError*100)
	f11, err := exp.Fig11CrossTraffic(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("fig11 tracking error %.1f%%\n\n", f11.TrackError*100)

	fmt.Println("## Fig. 7/12 — coexistence with non-ABC flows")
	f7, err := exp.Fig7Coexistence(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("fig7 Jain=%.3f ABC-queue p95=%.0f ms Cubic-queue p95=%.0f ms\n",
		f7.Jain, f7.ABCQDelayP95, f7.CubicQDelayP95)
	cfg := exp.DefaultFig12Config()
	cfg.Seed = *seed
	if *fast {
		cfg.Runs, cfg.Duration = 2, 20*sim.Second
	} else {
		cfg.Runs = 5
	}
	for _, pol := range []string{"maxmin", "zombie"} {
		pts, err := exp.Fig12WeightPolicy(pol, cfg)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("fig12 %-7s load=%5.1f%%: ABC %5.2f±%.2f  Cubic %5.2f±%.2f Mbps\n",
				pol, p.OfferedLoad*100, p.ABCMean, p.ABCStd, p.CubicMean, p.CubicStd)
		}
	}
	fmt.Println()

	fmt.Println("## Fig. 10/14 — Wi-Fi full stack")
	for _, setup := range []struct {
		label string
		users int
		mcs   func(sim.Time) int
	}{
		{"fig10 single user", 1, exp.AlternatingMCS(*seed)},
		{"fig10 two users", 2, exp.AlternatingMCS(*seed)},
		{"fig14 brownian", 1, exp.BrownianMCS(*seed)},
	} {
		sums, err := exp.Fig10WiFi(setup.users, setup.mcs, wifiDur, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("### %s\n", setup.label)
		for _, s := range sums {
			fmt.Println(s)
		}
	}
	fmt.Println()

	fmt.Println("## Fig. 16/17 — explicit schemes")
	ebars, err := exp.Fig9Bars(exp.ExplicitSchemes, nil, dur, *seed)
	if err != nil {
		return err
	}
	for _, sch := range ebars.Schemes {
		u, _, p := ebars.Average(sch)
		fmt.Printf("%-6s util=%5.1f%% p95=%6.0f ms\n", sch, u*100, p)
	}
	f17, err := exp.Fig17SquareWave(nil, *seed)
	if err != nil {
		return err
	}
	for _, r := range f17 {
		fmt.Printf("fig17 %-6s util=%5.1f%% p95 queuing=%4.0f ms\n",
			r.Scheme, r.Summary.Utilization*100, r.QDelayP95)
	}
	fmt.Println()

	fmt.Println("## Fig. 18 — RTT sensitivity")
	f18Schemes := []string{"ABC", "Cubic+Codel", "Cubic", "BBR"}
	f18, err := exp.Fig18RTTSweep(f18Schemes, dur, *seed)
	if err != nil {
		return err
	}
	for _, rtt := range []int{20, 50, 100, 200} {
		for _, sch := range f18Schemes {
			s := f18[rtt][sch]
			fmt.Printf("rtt=%3dms %-12s util=%5.1f%% p95=%6.0f ms\n",
				rtt, sch, s.Utilization*100, s.P95Ms)
		}
	}
	fmt.Println()

	fmt.Println("## Application workloads — short flows / video / RPC")
	appSchemes := []string{"ABC", "Cubic", "BBR"}
	sf, err := exp.ShortFlows(appSchemes, "", dur, *seed)
	if err != nil {
		return err
	}
	for _, r := range sf {
		fmt.Printf("shortflows %-6s flows=%3d FCT mean=%5.0f ms p95=%6.0f ms  q p95=%4.0f ms\n",
			r.Scheme, r.FCT.Count, r.FCT.MeanMs, r.FCT.P95Ms, r.QDelayP95)
	}
	vid, err := exp.VideoExp(appSchemes, "", dur, *seed)
	if err != nil {
		return err
	}
	for _, r := range vid {
		fmt.Printf("video      %-6s %v\n", r.Scheme, r.QoE)
	}
	rpc, err := exp.RPCExp(appSchemes, "", dur, *seed)
	if err != nil {
		return err
	}
	for _, r := range rpc {
		fmt.Printf("rpc        %-6s calls=%3d FCT mean=%5.0f ms p95=%6.0f ms  q p95=%4.0f ms\n",
			r.Scheme, r.Calls, r.FCT.MeanMs, r.FCT.P95Ms, r.QDelayP95)
	}
	fmt.Println()

	fmt.Println("## Dynamic topology — handover / flapping link")
	dynSchemes := []string{"ABC", "Cubic"}
	ho, err := exp.Handover(dynSchemes, dur, *seed)
	if err != nil {
		return err
	}
	for _, sch := range dynSchemes {
		fmt.Printf("handover %s", exp.FormatHandoverResult(sch, ho[sch]))
	}
	fl, err := exp.LinkFlap(dynSchemes, dur, *seed)
	if err != nil {
		return err
	}
	for _, sch := range dynSchemes {
		fmt.Printf("flap     %s", exp.FormatFlapResult(sch, fl[sch]))
	}
	fmt.Println()

	fmt.Println("## Adversarial robustness — targeted attack / greedy sender")
	advSchemes := []string{"ABC", "Cubic"}
	tg, err := exp.Targeted(advSchemes, dur, *seed)
	if err != nil {
		return err
	}
	for _, sch := range advSchemes {
		fmt.Printf("targeted %s", exp.FormatTargetedResult(sch, tg[sch]))
	}
	greedySchemes := []string{"ABC", "XCP", "RCP"}
	gr, err := exp.Greedy(greedySchemes, dur, *seed)
	if err != nil {
		return err
	}
	for _, sch := range greedySchemes {
		fmt.Printf("greedy   %s", exp.FormatGreedyResult(sch, gr[sch]))
	}
	fmt.Println()

	fmt.Println("## Hybrid fluid/packet — foreground vs background scale")
	// Wall time per cell is the hybrid mode's claim: a million fluid
	// users must cost about the same as none. It is measured here and
	// printed, never digested — it is host noise, not simulation output.
	for _, users := range exp.HybridScales {
		t0 := time.Now()
		cells, err := exp.Hybrid("", []int{users}, dur, *seed)
		if err != nil {
			return err
		}
		c := cells[0]
		fmt.Printf("hybrid users=%-8d bg=%6.3f Mbps share=%5.1f%%  video=%4.0f kbps  rpc FCT mean=%5.0f ms p95=%6.0f ms  q p95=%4.0f ms  wall=%v\n",
			c.Users, c.BgOfferedMbps, c.BgMeanShare*100, c.VideoQoE.MeanKbps,
			c.RPCFCT.MeanMs, c.RPCFCT.P95Ms, c.QDelayP95,
			time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println()

	fmt.Println("## §6.5 / §6.6 / Theorem 3.1")
	for _, n := range []int{2, 8, 32} {
		idx, err := exp.JainFairness(n, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("jain n=%2d: %.3f\n", n, idx)
	}
	pk, err := exp.PKABC(dur, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("pk-abc: p95 queuing %.0f -> %.0f ms at util %.1f%% -> %.1f%%\n",
		pk.QDelayP95ABC, pk.QDelayP95PK, pk.ABC.Utilization*100, pk.PK.Utilization*100)
	st := exp.StabilityRegion()
	fmt.Printf("stability boundary: delta/tau = %.2f (theorem: 0.67)\n", st.Boundary)
	return nil
}
