package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// P1 — access performance: index lookups per object-profile query on the
// base (one relation per object-set) vs. merged schema, sweeping the number
// of relationship-sets hanging off the center object.
func runP1(rows int) {
	fmt.Printf("object-profile query: fetch the center object and all its relationship parts\n")
	fmt.Printf("%-6s %-18s %-18s %s\n", "n", "base lookups/query", "merged lookups/query", "ratio")
	for _, n := range []int{1, 2, 4, 8, 16} {
		b, err := workload.NewBench(workload.StarEER(n), "E0", rows, int64(41+n))
		must(err)
		base0, merged0 := b.Base.Stats(), b.Merged.Stats()
		for _, k := range b.Keys {
			b.ProfileBase(k)
			b.ProfileMerged(k)
		}
		q := float64(len(b.Keys))
		base := float64(b.Base.Stats().Sub(base0).IndexLookups) / q
		merged := float64(b.Merged.Stats().Sub(merged0).IndexLookups) / q
		fmt.Printf("%-6d %-18.1f %-18.1f %.1fx\n", n, base, merged, base/merged)
	}
	fmt.Println("\npaper's claim: merging reduces the need for joining relations; the base")
	fmt.Println("access path costs one lookup per member relation, the merged path one total.")
}

// P2 — constraint-maintenance overhead: inserts into an only-NNA merged
// relation (star / Prop. 5.2) vs. one carrying a null-existence chain
// (chain / figure 6 regime), counting declarative checks and trigger
// firings.
func runP2(rows int) {
	inserts := rows / 2
	if inserts < 10 {
		inserts = 10
	}
	fmt.Printf("%-22s %-10s %-22s %-16s\n", "schema (n=4)", "inserts", "declarative checks/ins", "triggers/ins")
	for _, c := range []struct {
		label string
		mk    func() (*workload.Bench, error)
	}{
		{"star → only NNA", func() (*workload.Bench, error) {
			return workload.NewBench(workload.StarEER(4), "E0", rows, 17)
		}},
		{"chain → NE chain", func() (*workload.Bench, error) {
			return workload.NewBench(workload.ChainEER(4), "E0", rows, 19)
		}},
	} {
		b, err := c.mk()
		must(err)
		before := b.Merged.Stats()
		done := 0
		for i := 0; i < inserts; i++ {
			if err := b.InsertMergedRow(); err == nil {
				done++
			}
		}
		st := b.Merged.Stats().Sub(before)
		fmt.Printf("%-22s %-10d %-22.1f %-16.1f\n", c.label, done,
			float64(st.DeclarativeChecks)/float64(done),
			float64(st.TriggerFirings)/float64(done))
	}
	fmt.Println("\npaper's claim (§5.1): general null constraints need trigger/rule mechanisms,")
	fmt.Println("which are \"tedious and error-prone\"; only-NNA schemas stay declarative.")
}

// P4 — the advisor: the same schema under opposite workloads flips the
// recommendation exactly where the constraint regimes differ.
func runP4(int) {
	chain, err := translate.MS(workload.ChainEER(4))
	must(err)
	star, err := translate.MS(workload.StarEER(4))
	must(err)
	cm := relmerge.CostModel{IndexLookup: 1, DeclarativeCheck: 0.25, TriggerFiring: 50}

	fmt.Println("read-heavy workload (1000 profile queries : 1 insert):")
	for _, s := range []*schema.Schema{star, chain} {
		recs, err := relmerge.AdviseDesign(s, relmerge.Workload{
			ProfileQueries: map[string]float64{"E0": 1000},
			Inserts:        map[string]float64{"E0": 1},
		}, cm)
		must(err)
		fmt.Print(indent(relmerge.DesignReport(recs)))
	}
	fmt.Println("write-only workload (1000 inserts):")
	for _, s := range []*schema.Schema{star, chain} {
		recs, err := relmerge.AdviseDesign(s, relmerge.Workload{
			Inserts: map[string]float64{"E0": 1000},
		}, cm)
		must(err)
		fmt.Print(indent(relmerge.DesignReport(recs)))
	}
	fmt.Println("shape: the only-NNA star merges under every workload; the chain —")
	fmt.Println("whose merge needs trigger-maintained null-existence constraints — flips")
	fmt.Println("to 'keep split' once the workload is write-dominated (§5.1's trade-off).")
}

// P3 — Merge + RemoveAll cost as the merge set grows.
func runP3(int) {
	fmt.Printf("%-6s %-14s %-16s %s\n", "n", "schemes in R̄", "constraints out", "Merge+RemoveAll time")
	for _, n := range []int{2, 4, 8, 16, 32} {
		base, err := translate.MS(workload.StarEER(n))
		must(err)
		names := workload.MergeSetFor(base, "E0")
		start := time.Now()
		m, err := core.Merge(base, names, "MERGED")
		must(err)
		m.RemoveAll()
		elapsed := time.Since(start)
		fmt.Printf("%-6d %-14d %-16d %v\n", n, len(names), len(m.Schema.Nulls)+len(m.Schema.INDs), elapsed)
	}
}
