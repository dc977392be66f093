package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/figures"
	"repro/internal/keyrel"
	"repro/internal/nullcon"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// benchMeta records the run environment, so a committed BENCH_*.json can be
// compared against a regeneration: throughput and latency figures only mean
// something next to the toolchain and parallelism that produced them.
type benchMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func runMeta() benchMeta {
	return benchMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// suite wraps one suite's rows with the run environment, so every section of
// the report is self-describing — a section copied out of the file, or
// compared against another run's, carries the toolchain and parallelism that
// produced it rather than relying on one file-level stamp.
type suite[T any] struct {
	Meta benchMeta `json:"meta"`
	Rows []T       `json:"rows"`
}

func newSuite[T any](rows []T) suite[T] { return suite[T]{Meta: runMeta(), Rows: rows} }

// benchProbe is one machine-readable measurement.
type benchProbe struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH_PR4.json document: raw probes, the derived
// speedup ratios of the bitset closure engine over the retained map-based
// reference implementation, the attrset cache hit rates observed during the
// probes, the per-regime constraint-maintenance counters of the fig. 3
// replay (declarative checks vs. trigger firings, base vs. merged design),
// the goroutine-scaling throughput grid (scaling.go) with its 1→8-worker
// speedup per curve, and the durability grid (durability.go): mixed-workload
// throughput with the write-ahead log at each fsync policy, plus each
// policy's throughput cost relative to the no-log baseline.
type benchReport struct {
	Meta               benchMeta             `json:"meta"`
	Probes             suite[benchProbe]     `json:"probes"`
	Speedups           map[string]float64    `json:"speedups"`
	CacheHitRates      map[string]float64    `json:"cache_hit_rates"`
	Maintenance        suite[maintenanceRow] `json:"maintenance"`
	Scaling            suite[scalingRow]     `json:"scaling"`
	ScalingSpeedups    map[string]float64    `json:"scaling_speedups"`
	Durability         suite[durabilityRow]  `json:"durability"`
	DurabilityOverhead map[string]float64    `json:"durability_overhead"`
	Serving            suite[servingRow]     `json:"serving"`
	ServingSpeedups    map[string]float64    `json:"serving_speedups"`
	ServingCrash       *servingCrash         `json:"serving_crash"`
	ReadUnderWrite     suite[p8Row]          `json:"read_under_write"`
	ReadUnderRatios    map[string]float64    `json:"read_under_write_ratios"`
	Sharding           suite[shardingRow]    `json:"sharding"`
	ShardingSpeedups   map[string]float64    `json:"sharding_speedups"`
	Replication        suite[replRow]        `json:"replication"`
	ReplicationGains   map[string]float64    `json:"replication_gains"`
	ReplicationLag     *replLag              `json:"replication_lag"`
	ReplicationFail    *replFailover         `json:"replication_failover"`
	Adaptive           suite[adaptiveRun]    `json:"adaptive"`
}

// maintenanceRow is one engine's constraint-maintenance profile for the
// fig. 3 replay: how much checking was declarative (Prop. 5.1's cheap
// regime) and how much needed trigger firings.
type maintenanceRow struct {
	DB                string `json:"db"`
	Inserts           int    `json:"inserts"`
	DeclarativeChecks int    `json:"declarative_checks"`
	TriggerFirings    int    `json:"trigger_firings"`
}

func chainFDs(n int) ([]string, []fd.Dep) {
	attrs := make([]string, 0, n+1)
	for i := 0; i <= n; i++ {
		attrs = append(attrs, fmt.Sprintf("A%d", i))
	}
	deps := make([]fd.Dep, 0, n)
	for i := 0; i < n; i++ {
		deps = append(deps, fd.NewDep(attrs[i:i+1], attrs[i+1:i+2]))
	}
	return attrs, deps
}

// reverseFDs returns the chain dependencies in reverse declaration order —
// the adversarial ordering for the reference fixpoint (each pass derives one
// new attribute, so it goes quadratic), to which the indexed counter
// algorithm is immune.
func reverseFDs(deps []fd.Dep) []fd.Dep {
	out := make([]fd.Dep, len(deps))
	for i, d := range deps {
		out[len(deps)-1-i] = d
	}
	return out
}

func starFDs(n int) ([]string, []fd.Dep) {
	attrs := []string{"Hub"}
	var deps []fd.Dep
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("S%d", i)
		attrs = append(attrs, s)
		deps = append(deps, fd.NewDep([]string{"Hub"}, []string{s}))
	}
	return attrs, deps
}

func chainExistence(n int) []schema.NullExistence {
	nes := make([]schema.NullExistence, 0, n)
	for i := 0; i < n; i++ {
		nes = append(nes, schema.NullExistence{
			Scheme: "R",
			Y:      []string{fmt.Sprintf("R.A%d", i)},
			Z:      []string{fmt.Sprintf("R.A%d", i+1)},
		})
	}
	return nes
}

func probe(name string, fn func(b *testing.B)) benchProbe {
	r := testing.Benchmark(fn)
	return benchProbe{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runJSON measures the dependency-reasoning hot paths and writes the report.
func runJSON(path string) error {
	// Fail fast on an unwritable path rather than after minutes of probes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()

	var probes []benchProbe
	add := func(p benchProbe) {
		probes = append(probes, p)
		fmt.Printf("%-44s %14.1f ns/op %8d allocs/op\n", p.Name, p.NsPerOp, p.AllocsPerOp)
	}

	// Closure at scale: bitset engine vs. retained reference, forward and
	// adversarially-ordered chains plus a star.
	for _, n := range []int{1000, 10000} {
		attrs, deps := chainFDs(n)
		rev := reverseFDs(deps)
		add(probe(fmt.Sprintf("closure/bitset/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.Closure(attrs[:1], deps)
			}
		}))
		add(probe(fmt.Sprintf("closure/reference/chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.ClosureReference(attrs[:1], deps)
			}
		}))
		add(probe(fmt.Sprintf("closure/bitset/chain-rev=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.Closure(attrs[:1], rev)
			}
		}))
		add(probe(fmt.Sprintf("closure/reference/chain-rev=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.ClosureReference(attrs[:1], rev)
			}
		}))
	}
	{
		attrs, deps := starFDs(1000)
		add(probe("closure/bitset/star=1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.Closure(attrs[:1], deps)
			}
		}))
		add(probe("closure/reference/star=1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.ClosureReference(attrs[:1], deps)
			}
		}))
	}

	// Steady-state memoized closure on a pinned index: the engine's hit path,
	// which must not allocate. The cache hit rate of this probe is the
	// memo-steady-state figure reported in cache_hit_rates.
	cacheHitRates := map[string]float64{}
	{
		_, deps := chainFDs(1000)
		engine := attrset.NewEngine()
		ix := engine.Index(len(deps), func(i int) ([]string, []string) {
			return deps[i].LHS, deps[i].RHS
		})
		seed := []string{"A0"}
		engine.Closure(ix, seed) // warm the memo
		add(probe("closure/engine-steady-state/chain=1000", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Closure(ix, seed)
			}
		}))
		cacheHitRates["engine-steady-state/closure"] = engine.CacheStats().ClosureHitRate()
	}

	// Implication through the public fd adapter (fingerprint walk + memo hit).
	{
		attrs, deps := chainFDs(1000)
		d := fd.NewDep(attrs[:1], attrs[len(attrs)-1:])
		add(probe("implies/steady-state/chain=1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.Implies(deps, d)
			}
		}))
	}

	// Key enumeration and cover minimization at design scale.
	{
		attrs, deps := chainFDs(12)
		add(probe("candidate-keys/chain=12", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.CandidateKeys(attrs, deps)
			}
		}))
		add(probe("minimal-cover/chain=12", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.MinimalCover(deps)
			}
		}))
	}

	// Null-existence closure (FD-shaped reasoning over null constraints).
	{
		nes := chainExistence(1000)
		seed := []string{"R.A0"}
		add(probe("nullcon/close-existence/chain=1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nullcon.CloseExistence("R", nes, seed)
			}
		}))
	}

	// Schema-level paths: key-relation search, merge + constraint removal,
	// and the workload advisor.
	{
		star, err := translate.MS(workload.StarEER(16))
		if err != nil {
			return err
		}
		names := workload.MergeSetFor(star, "E0")
		add(probe("keyrel/find/star=16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keyrel.Find(star, names)
			}
		}))
		add(probe("core/merge-removeall/star=16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.Merge(star, names, "MERGED")
				if err != nil {
					b.Fatal(err)
				}
				m.RemoveAll()
			}
		}))
	}
	{
		star, err := translate.MS(workload.StarEER(8))
		if err != nil {
			return err
		}
		w := relmerge.Workload{
			ProfileQueries: map[string]float64{"E0": 100},
			Inserts:        map[string]float64{"E0": 1},
		}
		cm := relmerge.DefaultCostModel()
		add(probe("advisor/advise/star=8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relmerge.AdviseDesign(star, w, cm); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Package-level dependency-reasoning caches, warmed by every probe above.
	if st := fd.CacheStats(); st.ClosureHits+st.ClosureMisses > 0 {
		cacheHitRates["fd/closure"] = st.ClosureHitRate()
	}
	if st := nullcon.CacheStats(); st.ClosureHits+st.ClosureMisses > 0 {
		cacheHitRates["nullcon/closure"] = st.ClosureHitRate()
	}

	maintenance, err := maintenanceProfile()
	if err != nil {
		return err
	}

	scaling, scalingSpeedups, err := scalingSuite()
	if err != nil {
		return err
	}

	durability, durabilityOverhead, err := durabilitySuite()
	if err != nil {
		return err
	}

	serving, servingSpeedups, crash, err := servingSuite()
	if err != nil {
		return err
	}

	readUnderWrite, readUnderRatios, err := readUnderWriteSuite()
	if err != nil {
		return err
	}

	sharding, shardingSpeedups, err := shardingSuite()
	if err != nil {
		return err
	}

	replication, replicationGains, replicationLag, replicationFail, err := replicationSuite()
	if err != nil {
		return err
	}

	adaptive, err := adaptiveSuite()
	if err != nil {
		return err
	}

	report := benchReport{
		Meta:               runMeta(),
		Probes:             newSuite(probes),
		Speedups:           map[string]float64{},
		CacheHitRates:      cacheHitRates,
		Maintenance:        newSuite(maintenance),
		Scaling:            newSuite(scaling),
		ScalingSpeedups:    scalingSpeedups,
		Durability:         newSuite(durability),
		DurabilityOverhead: durabilityOverhead,
		Serving:            newSuite(serving),
		ServingSpeedups:    servingSpeedups,
		ServingCrash:       crash,
		ReadUnderWrite:     newSuite(readUnderWrite),
		ReadUnderRatios:    readUnderRatios,
		Sharding:           newSuite(sharding),
		ShardingSpeedups:   shardingSpeedups,
		Replication:        newSuite(replication),
		ReplicationGains:   replicationGains,
		ReplicationLag:     replicationLag,
		ReplicationFail:    replicationFail,
		Adaptive:           newSuite(adaptive),
	}
	byName := make(map[string]benchProbe, len(probes))
	for _, p := range report.Probes.Rows {
		byName[p.Name] = p
	}
	for _, w := range []string{"chain=1000", "chain=10000", "chain-rev=1000", "chain-rev=10000", "star=1000"} {
		ref, okRef := byName["closure/reference/"+w]
		bit, okBit := byName["closure/bitset/"+w]
		if okRef && okBit && bit.NsPerOp > 0 {
			report.Speedups[w] = ref.NsPerOp / bit.NsPerOp
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nspeedups (reference / bitset):\n")
	for _, w := range []string{"chain=1000", "chain=10000", "chain-rev=1000", "chain-rev=10000", "star=1000"} {
		if s, ok := report.Speedups[w]; ok {
			fmt.Printf("  %-20s %.1fx\n", w, s)
		}
	}
	fmt.Printf("cache hit rates:\n")
	for _, k := range []string{"engine-steady-state/closure", "fd/closure", "nullcon/closure"} {
		if r, ok := report.CacheHitRates[k]; ok {
			fmt.Printf("  %-28s %.1f%%\n", k, 100*r)
		}
	}
	fmt.Printf("maintenance (fig. 3 replay):\n")
	for _, row := range report.Maintenance.Rows {
		fmt.Printf("  %-8s inserts=%d declarative=%d triggers=%d\n", row.DB, row.Inserts, row.DeclarativeChecks, row.TriggerFirings)
	}
	fmt.Printf("throughput scaling, 1 → %d workers (90/10 mix):\n", scalingWorkers[len(scalingWorkers)-1])
	for _, shape := range scalingShapes() {
		for _, db := range []string{"base", "merged"} {
			if s, ok := report.ScalingSpeedups[shape.Name+"/"+db]; ok {
				fmt.Printf("  %-22s %.1fx\n", shape.Name+"/"+db, s)
			}
		}
	}
	fmt.Printf("durability throughput (90/10 mix, ops/sec by fsync policy):\n")
	for _, row := range report.Durability.Rows {
		fmt.Printf("  %-8s %-10s %12.0f ops/sec  (appends=%d fsyncs=%d)\n",
			row.DB, row.Policy, row.OpsPerSec, row.WalAppends, row.WalFsyncs)
	}
	fmt.Printf("durability cost vs. no log (ratio > 1 = slower):\n")
	for _, mode := range durabilityModes() {
		for _, db := range []string{"base", "merged"} {
			if c, ok := report.DurabilityOverhead[db+"/"+mode.Name]; ok {
				fmt.Printf("  %-18s %.1fx\n", db+"/"+mode.Name, c)
			}
		}
	}
	fmt.Printf("client/server scaling, %d → %d clients (90/10 mix, ops/sec ratio):\n",
		servingClients[0], servingClients[len(servingClients)-1])
	for _, pol := range servingPolicies() {
		for _, backend := range []string{"embedded", "remote"} {
			if s, ok := servingSpeedups[backend+"/"+pol.Name]; ok {
				fmt.Printf("  %-22s %.1fx\n", backend+"/"+pol.Name, s)
			}
		}
	}
	fmt.Printf("crash probe: acked=%d recovered=%d exact_prefix=%v\n",
		crash.AckedWrites, crash.RecoveredWrites, crash.ExactPrefix)
	fmt.Printf("reader throughput under saturating writer vs. writer-idle:\n")
	for _, db := range []string{"base", "merged"} {
		for _, readers := range p8Readers {
			k := fmt.Sprintf("star8/%s/readers=%d", db, readers)
			if s, ok := report.ReadUnderRatios[k]; ok {
				fmt.Printf("  %-28s %.2fx\n", k, s)
			}
		}
	}
	fmt.Printf("shard-local write scaling (insert-only, ops/sec ratio):\n")
	for _, k := range []string{"local/1to4", "local/1to8", "xshard/1to4", "xshard/1to8"} {
		if s, ok := report.ShardingSpeedups[k]; ok {
			fmt.Printf("  %-14s %.1fx\n", k, s)
		}
	}
	fmt.Printf("replication read fan-out (aggregate ops/sec vs. primary alone):\n")
	for replicas := 1; replicas <= replFollowers; replicas++ {
		k := fmt.Sprintf("replicas=%d", replicas)
		if s, ok := replicationGains[k]; ok {
			fmt.Printf("  %-14s %.1fx\n", k, s)
		}
	}
	fmt.Printf("replication lag: max=%d records, caught up in %.1fms; failover: acked=%d recovered=%d exact_prefix=%v\n",
		replicationLag.MaxLagRecords, replicationLag.CatchUpMS,
		replicationFail.AckedWrites, replicationFail.RecoveredWrites, replicationFail.ExactPrefix)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// maintenanceProfile replays the deterministic figure 3 state into the base
// schema and into the fully merged COURSE” design, recording how much of the
// constraint maintenance each engine could do declaratively (Prop. 5.1) and
// how much needed trigger firings.
func maintenanceProfile() ([]maintenanceRow, error) {
	s := figures.Fig3()
	st := figures.Fig3State()
	base, err := engine.Open(s)
	if err != nil {
		return nil, err
	}
	if err := base.Load(st); err != nil {
		return nil, fmt.Errorf("benchreport: replaying fig. 3 into the base engine: %w", err)
	}
	m, err := core.MergeSet(s, []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, core.WithName("COURSE''"))
	if err != nil {
		return nil, err
	}
	m.RemoveAll()
	merged, err := engine.Open(m.Schema)
	if err != nil {
		return nil, err
	}
	if err := merged.Load(m.MapState(st)); err != nil {
		return nil, fmt.Errorf("benchreport: replaying fig. 3 into the merged engine: %w", err)
	}
	row := func(name string, db *engine.DB) maintenanceRow {
		st := db.Stats()
		return maintenanceRow{
			DB:                name,
			Inserts:           st.Inserts,
			DeclarativeChecks: st.DeclarativeChecks,
			TriggerFirings:    st.TriggerFirings,
		}
	}
	return []maintenanceRow{row("base", base), row("merged", merged)}, nil
}
