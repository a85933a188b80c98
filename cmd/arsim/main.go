// Command arsim runs one workload on one machine configuration and prints
// the run's measurements.
//
// Usage:
//
//	arsim -scheme ARF-tid -workload mac -scale small
//	arsim -scheme ARF-tid -workload lud -checkpoint-at 5000 -checkpoint-file run.ckpt
//	arsim -scheme ARF-tid -workload lud -resume-from run.ckpt
//
// A checkpointed run stops at the first quiescent point at or after the
// requested cycle and writes the machine snapshot to -checkpoint-file; a
// resumed run restores it into an identically configured machine and
// continues, producing measurements bit-identical to an uninterrupted run.
// If the run completes before any quiescent point, no checkpoint is
// written and the final measurements print as usual.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	activerouting "repro"
)

func main() {
	schemeFlag := flag.String("scheme", "ARF-tid", "machine configuration (DRAM, HMC, ART, ARF-tid, ARF-addr, ARF-tid-adaptive, ARF-ea)")
	wlFlag := flag.String("workload", "mac", "workload (backprop, lud, pagerank, sgemm, spmv, reduce, rand_reduce, mac, rand_mac, mac_vec, lud_phase)")
	scaleFlag := flag.String("scale", "small", "input scale (tiny, small, medium)")
	ckptAt := flag.Uint64("checkpoint-at", 0, "snapshot the machine at the first quiescent point at or after this cycle and exit (0 = run to completion)")
	ckptFile := flag.String("checkpoint-file", "", "file the -checkpoint-at snapshot is written to (required with -checkpoint-at)")
	resumeFrom := flag.String("resume-from", "", "restore a -checkpoint-at snapshot from this file and continue the run")
	flag.Parse()

	scheme, err := activerouting.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsim:", err)
		os.Exit(2)
	}
	scale, err := activerouting.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsim:", err)
		os.Exit(2)
	}

	if *ckptAt > 0 && *ckptFile == "" {
		fmt.Fprintln(os.Stderr, "arsim: -checkpoint-at needs -checkpoint-file")
		os.Exit(2)
	}
	if *ckptAt > 0 && *resumeFrom != "" {
		fmt.Fprintln(os.Stderr, "arsim: -checkpoint-at and -resume-from are mutually exclusive")
		os.Exit(2)
	}

	sys, err := activerouting.NewSystem(activerouting.DefaultConfig(scheme), *wlFlag, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsim:", err)
		os.Exit(1)
	}
	if *resumeFrom != "" {
		blob, err := os.ReadFile(*resumeFrom)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arsim:", err)
			os.Exit(1)
		}
		if err := sys.Restore(blob); err != nil {
			fmt.Fprintln(os.Stderr, "arsim: restoring", *resumeFrom+":", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "arsim: resumed from %s\n", *resumeFrom)
	}
	if *ckptAt > 0 {
		snap, err := sys.RunToCheckpoint(context.Background(), *ckptAt, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arsim:", err)
			os.Exit(1)
		}
		if snap != nil {
			if err := os.WriteFile(*ckptFile, snap, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "arsim:", err)
				os.Exit(1)
			}
			fmt.Printf("checkpoint        %s (%d bytes)\n", *ckptFile, len(snap))
			fmt.Printf("verification      deferred (resume with -resume-from %s)\n", *ckptFile)
			return
		}
		fmt.Fprintln(os.Stderr, "arsim: run completed before any quiescent point; no checkpoint written")
	}
	res, err := sys.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsim:", err)
		os.Exit(1)
	}

	fmt.Printf("scheme            %s\n", res.Scheme)
	fmt.Printf("workload          %s\n", res.Workload)
	fmt.Printf("cycles            %d\n", res.Cycles)
	fmt.Printf("instructions      %d\n", res.Instructions)
	fmt.Printf("IPC               %.3f\n", res.IPC)
	fmt.Printf("verification      passed\n")
	if res.Coord.Updates > 0 {
		req, stall, resp := res.Breakdown.Means()
		fmt.Printf("updates offloaded %d (committed in network: %d)\n", res.Coord.Updates, res.Engine.UpdatesCommitted)
		fmt.Printf("update roundtrip  req=%.1f stall=%.1f resp=%.1f cycles\n", req, stall, resp)
		fmt.Printf("flows completed   %d (peak concurrent per cube: %d)\n", res.Coord.FlowsComplete, res.FlowPeak)
		fmt.Printf("bypassed operands %d (single-operand optimization)\n", res.Engine.SingleOpBypasses)
	}
	fmt.Printf("data movement     norm_req=%d active_req=%d norm_resp=%d active_resp=%d bytes\n",
		res.Movement.NormReq, res.Movement.ActiveReq, res.Movement.NormResp, res.Movement.ActiveResp)
	fmt.Printf("energy            cache=%.3g memory=%.3g network=%.3g J (total %.3g)\n",
		res.Energy.CacheJ, res.Energy.MemoryJ, res.Energy.NetworkJ, res.Energy.Total())
	fmt.Printf("EDP               %.3g J*s\n", res.EDP)
}
