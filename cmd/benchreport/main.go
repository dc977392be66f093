// Command benchreport regenerates every evaluation artifact of Markowitz
// (ICDE 1992): the worked figures 1–8 (experiments E1–E8), the empirical
// verification of Propositions 3.1, 4.1, 4.2, 5.1, and 5.2 (E9–E10), and the
// performance experiments behind the paper's motivating claims (P1–P3).
//
// Usage:
//
//	benchreport            # run everything
//	benchreport -only E4   # run one experiment
//	benchreport -rows 200  # scale the performance experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func(rows int)
}

func main() {
	var (
		only     = flag.String("only", "", "run a single experiment (e.g. E4 or P1)")
		rows     = flag.Int("rows", 100, "row count for the performance experiments")
		jsonPath = flag.String("json", "", "write machine-readable micro-benchmarks to this file and exit")
		probe    = flag.Bool("probe", false, "quick read-under-write sanity check (the make-check gate) and exit")
	)
	flag.Parse()

	if *probe {
		if err := runProbe(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := runShardProbe(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		if err := runJSON(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	experiments := []experiment{
		{"E1", "Figure 1: ER translation vs. the Teorey baseline (the WORKS anomaly)", runE1},
		{"E2", "Figure 2 and the synthesis baseline: OFFER + TEACH → ASSIGN", runE2},
		{"E3", "Figure 3: the university schema", runE3},
		{"E4", "Figure 4: Merge(COURSE, OFFER, TEACH)", runE4},
		{"E5", "Figure 5: Merge(COURSE, OFFER, TEACH, ASSIST)", runE5},
		{"E6", "Figure 6: Remove(O.C.NR, T.C.NR, A.C.NR)", runE6},
		{"E7", "Figure 7: the EER schema and its translation", runE7},
		{"E8", "Figure 8: structures amenable to single-relation representation", runE8},
		{"E9", "Props. 3.1/4.1/4.2: key-relations, information capacity, BCNF", runE9},
		{"E10", "Props. 5.1/5.2: DBMS applicability conditions", runE10},
		{"P1", "Access performance: object-profile lookups, base vs. merged", runP1},
		{"P2", "Maintenance overhead: declarative vs. trigger-style constraints", runP2},
		{"P3", "Procedure scalability: Merge + RemoveAll cost vs. merge-set size", runP3},
		{"P4", "Denormalization advisor: workload-driven merge recommendations", runP4},
		{"P5", "Concurrent scalability: mixed workload throughput vs. goroutines", runP5},
		{"P6", "Durability overhead: mixed workload throughput vs. fsync policy", runP6},
		{"P7", "Client/server serving: Session throughput, embedded vs. remote", runP7},
		{"P8", "Read-under-write: MVCC reader throughput vs. saturating writer", runP8},
		{"P9", "Shard scaling: write throughput and cross-shard IND probe cost vs. shard count", runP9},
		{"P11", "Replication: follower read fan-out, shipping lag, failover", runP11},
		{"P12", "Adaptive merging: live advisor A/B, merge-favorable vs merge-hostile", runP12},
	}

	matched := false
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		matched = true
		fmt.Printf("═══ %s — %s\n\n", e.id, e.title)
		e.run(*rows)
		fmt.Println()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "benchreport: unknown experiment %q\n", *only)
		os.Exit(1)
	}
}
