// Command bench regenerates every table and figure of the ForkBase ICDE'20
// demonstration paper, plus the ablations from DESIGN.md.
//
//	bench -exp all          run everything (default)
//	bench -exp table1       Table I comparison
//	bench -exp fig2         POS-Tree structure
//	bench -exp fig3         merge sub-tree reuse
//	bench -exp fig4         CSV deduplication
//	bench -exp fig5         differential query
//	bench -exp fig6         tamper evidence
//	bench -exp a1|a2|a3     ablations
//	bench -exp perf         write/read-path perf suite (median of 5)
//	bench -exp repl         Merkle-delta replication vs full copy
//	bench -exp chaos        robustness soak under a seeded fault schedule
//	bench -exp heal         disk rot → scrub → quarantine → Merkle self-healing
//	bench -exp siri         POS-Tree vs Merkle Patricia Trie comparison
//	bench -exp scale        GOMAXPROCS matrix for the parallel paths
//	bench -exp obs          metrics-layer overhead + counter accounting soak
//	bench -exp verify       amortized verification: FileStore stamps + tamper matrix
//
// Use -quick for smaller workloads (CI-sized).  With -json FILE the perf
// suite also writes a machine-readable report (BENCH_N.json artifacts track
// the repository's performance trajectory across PRs).
package main

import (
	"flag"
	"fmt"
	"os"

	"forkbase/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|fig2|fig3|fig4|fig5|fig6|a1|a2|a3|perf|repl|chaos|heal|siri|scale|obs|verify")
	quick := flag.Bool("quick", false, "smaller workloads")
	jsonPath := flag.String("json", "", "write the perf suite report to this file (JSON)")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	out := os.Stdout

	run("table1", func() error {
		cfg := experiments.DefaultTable1()
		if *quick {
			cfg = experiments.Table1Config{Rows: 2000, Versions: 5, Churn: 5}
		}
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			return err
		}
		experiments.PrintTable1(out, rows, cfg)
		return nil
	})

	run("fig2", func() error {
		sizes := []int{1000, 10000, 100000, 1000000}
		if *quick {
			sizes = []int{1000, 10000, 50000}
		}
		rows, err := experiments.RunFig2(sizes)
		if err != nil {
			return err
		}
		experiments.PrintFig2(out, rows)
		return nil
	})

	run("fig3", func() error {
		n, edits := 100000, 1000
		if *quick {
			n, edits = 20000, 200
		}
		res, err := experiments.RunFig3(n, edits)
		if err != nil {
			return err
		}
		experiments.PrintFig3(out, res)
		return nil
	})

	run("fig4", func() error {
		rows := 4000 // ~340 KB of CSV, matching the demo's dataset size
		if *quick {
			rows = 1000
		}
		res, err := experiments.RunFig4(rows)
		if err != nil {
			return err
		}
		experiments.PrintFig4(out, res)
		return nil
	})

	run("fig5", func() error {
		sizes := []int{1000, 10000, 100000, 500000}
		if *quick {
			sizes = []int{1000, 10000, 50000}
		}
		rows, err := experiments.RunFig5(sizes, 10)
		if err != nil {
			return err
		}
		experiments.PrintFig5(out, rows)
		return nil
	})

	run("fig6", func() error {
		versions, rows := 5, 2000
		if *quick {
			versions, rows = 3, 300
		}
		res, err := experiments.RunFig6(versions, rows)
		if err != nil {
			return err
		}
		experiments.PrintFig6(out, res)
		return nil
	})

	run("a1", func() error {
		entries, versions := 50000, 10
		if *quick {
			entries, versions = 10000, 5
		}
		res, err := experiments.RunA1(entries, versions)
		if err != nil {
			return err
		}
		experiments.PrintA1(out, res)
		return nil
	})

	run("a2", func() error {
		entries := 100000
		batches := []int{1, 10, 100, 1000, 10000}
		if *quick {
			entries = 20000
			batches = []int{1, 10, 100, 1000}
		}
		rows, err := experiments.RunA2(entries, batches)
		if err != nil {
			return err
		}
		experiments.PrintA2(out, rows)
		return nil
	})

	run("a3", func() error {
		entries := 50000
		qs := []uint{8, 10, 12, 14}
		if *quick {
			entries = 10000
		}
		rows, err := experiments.RunA3(entries, qs)
		if err != nil {
			return err
		}
		experiments.PrintA3(out, rows, entries)
		return nil
	})

	run("perf", func() error {
		rep, err := experiments.RunPerf(*quick)
		if err != nil {
			return err
		}
		experiments.PrintPerf(out, rep)
		if *jsonPath != "" {
			if err := experiments.WritePerfJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("repl", func() error {
		rep, err := experiments.RunRepl(*quick)
		if err != nil {
			return err
		}
		experiments.PrintRepl(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteReplJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("chaos", func() error {
		rep, err := experiments.RunChaos(*quick)
		if err != nil {
			return err
		}
		experiments.PrintChaos(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteChaosJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if !rep.Passed {
			return fmt.Errorf("chaos soak failed: lost_acked=%d within_budget=%v follower=%v cluster=%v crash=%v",
				rep.LostAckedTotal, rep.WithinBudget, rep.FollowerConverged, rep.ClusterConverged, rep.CrashRecovered)
		}
		return nil
	})

	run("heal", func() error {
		rep, err := experiments.RunHeal(*quick)
		if err != nil {
			return err
		}
		experiments.PrintHeal(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteHealJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if !rep.Passed {
			return fmt.Errorf("heal experiment failed: detected=%v roots_identical=%v lost_acked=%d healthy=%v repaired=%d",
				rep.DamageDetected, rep.RootsIdentical, rep.LostAcked, rep.HealthyAfterHeal, rep.HealRepaired)
		}
		return nil
	})

	run("siri", func() error {
		rep, err := experiments.RunSiri(*quick)
		if err != nil {
			return err
		}
		experiments.PrintSiri(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteSiriJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	})

	run("scale", func() error {
		rep, runErr := experiments.RunScale(*quick)
		if rep != nil {
			experiments.PrintScale(out, rep)
			if *jsonPath != "" {
				if err := experiments.WriteScaleJSON(*jsonPath, rep); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
		}
		// A root/delta divergence surfaces as runErr after the partial
		// report is emitted: CI fails on it.
		return runErr
	})

	run("obs", func() error {
		rep, err := experiments.RunObs(*quick)
		if err != nil {
			return err
		}
		experiments.PrintObs(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteObsJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if !rep.Passed {
			return fmt.Errorf("obs experiment failed: counter_inc=%.2fns overhead=%.2f%% rest=%v engine=%v server=%v",
				rep.CounterIncNs, rep.OverheadPct, rep.RESTCountersExact, rep.EngineOpsExact, rep.ServerOpsExact)
		}
		return nil
	})

	run("verify", func() error {
		rep, err := experiments.RunVerify(*quick)
		if err != nil {
			return err
		}
		experiments.PrintVerify(out, rep)
		if *jsonPath != "" {
			if err := experiments.WriteVerifyJSON(*jsonPath, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if !rep.Passed {
			return fmt.Errorf("verify experiment failed: speedup=%.1fx (ok=%v) overhead=%+.1f%% (ok=%v) one_hash=%v tamper=[flip=%v forge=%v scrub=%v repair=%v]",
				rep.SpeedupVsRehash, rep.SpeedupOK, rep.OverheadVsBare*100, rep.OverheadOK, rep.OneHashPerChunk,
				rep.TamperFlipDetected, rep.TamperForgedPutRejected, rep.TamperRotScrubDetected, rep.TamperRotRepaired)
		}
		return nil
	})
}
