// Perf: the paper's motivating performance claims, measured on the
// in-memory engine — merged schemas answer multi-object queries with a
// single lookup instead of one per relation, and the price is procedural
// constraint maintenance when the merge leaves general null constraints.
package main

import (
	"fmt"

	"repro/internal/workload"
)

func main() {
	fmt.Println("access path: object-profile query, base vs. merged (star schema)")
	fmt.Printf("%-4s %-20s %-20s %s\n", "n", "base lookups/query", "merged lookups/query", "speedup")
	for _, n := range []int{2, 4, 8} {
		b, err := workload.NewBench(workload.StarEER(n), "E0", 200, int64(n))
		check(err)
		base0, merged0 := b.Base.Stats(), b.Merged.Stats()
		for _, k := range b.Keys {
			b.ProfileBase(k)
			b.ProfileMerged(k)
		}
		q := float64(len(b.Keys))
		base := float64(b.Base.Stats().Sub(base0).IndexLookups) / q
		merged := float64(b.Merged.Stats().Sub(merged0).IndexLookups) / q
		fmt.Printf("%-4d %-20.1f %-20.1f %.1fx\n", n, base, merged, base/merged)
	}

	fmt.Println("\nmaintenance: inserts into the merged relation (n = 4)")
	fmt.Printf("%-24s %-24s %s\n", "merged constraint regime", "declarative checks/ins", "trigger firings/ins")
	for _, c := range []struct {
		label string
		mk    func() (*workload.Bench, error)
	}{
		{"only NNA (star)", func() (*workload.Bench, error) {
			return workload.NewBench(workload.StarEER(4), "E0", 100, 5)
		}},
		{"NE chain (chain)", func() (*workload.Bench, error) {
			return workload.NewBench(workload.ChainEER(4), "E0", 100, 6)
		}},
	} {
		b, err := c.mk()
		check(err)
		before := b.Merged.Stats()
		done := 0
		for i := 0; i < 50; i++ {
			if err := b.InsertMergedRow(); err == nil {
				done++
			}
		}
		st := b.Merged.Stats().Sub(before)
		fmt.Printf("%-24s %-24.1f %.1f\n", c.label,
			float64(st.DeclarativeChecks)/float64(done),
			float64(st.TriggerFirings)/float64(done))
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
