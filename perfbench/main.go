// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points (relmerge.Open, server.New(...).Serve,
// engine.Load, shard.Router.Load) with two closed-loop clients, checks every
// outcome against a model of each client's key range, and prints every
// metric with its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a separate
// traced run reports the per-layer ones. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload star-profile-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: star-profile-read, chain-merged-write or star-shard-batch")
	seed := flag.Int64("seed", 1, "seed of the generated data and of the clients' operation mix")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dataDir:  ".bench_data",
		setups:   3,
		warmup:   time.Second,
		tailOps:  1000,
		scale:    1,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s data_fs=%s\n",
		cfg.workload, cfg.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.dataDir))
	for _, line := range res.info {
		fmt.Println("#", line)
	}
	fmt.Printf("# error_rate=%v (%d wrong or failed outcomes of %d ops)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, e := range res.errs {
		fmt.Println("# failure:", e)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, n := range names {
		d, _ := lookupDef(n)
		fmt.Printf("# %-38s %14.4f %-6s %s\n", n, res.metrics[n], d.unit, d.moves)
		out.Metrics[n] = value{res.metrics[n], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fsType names the filesystem holding dir, for the run metadata.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
