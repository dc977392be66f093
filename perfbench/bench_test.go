package main

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/pkg/relmerge"
)

// shortConfig is a run small enough for a test: 2% of the published data
// sizes, one set-up, a fraction of a second measured.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  400 * time.Millisecond,
		trace:    trace,
		dataDir:  t.TempDir(),
		setups:   2,
		warmup:   50 * time.Millisecond,
		tailOps:  50,
		scale:    0.02,
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric table
// in step: same names, units and directions, and the same workloads.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchFile(t)
	seen := map[string]bool{}
	check := func(name, unit, better string, layer bool) {
		d, ok := lookupDef(name)
		if !ok {
			t.Errorf("%s is in BENCHMARK.json but not in metricDefs", name)
			return
		}
		if d.unit != unit || d.better != better || d.layer != layer {
			t.Errorf("%s: BENCHMARK.json says %s/%s/layer=%v, metricDefs %s/%s/layer=%v", name, unit, better, layer, d.unit, d.better, d.layer)
		}
		seen[name] = true
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for _, d := range metricDefs {
		if !seen[d.name] {
			t.Errorf("%s is in metricDefs but not in BENCHMARK.json", d.name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and checks
// that each prints exactly its metric set, correctly.
func TestShortRuns(t *testing.T) {
	bf := readBenchFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(shortConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, res.attempted, res.failed, res.errs)
			}
			want := map[string]bool{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = true
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = true
				}
			}
			for name, v := range res.metrics {
				if !want[name] {
					t.Errorf("%s trace=%v: unexpected metric %s", w.name, trace, name)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
			}
			if trace && w.name == "chain-merged-write" {
				m := res.metrics
				sum := m["relmerge.self_us"] + m["server.self_us"] + m["engine.self_us"]
				if d := sum - m["trace.session_us"]; d > 1e-6*m["trace.session_us"] || d < -1e-6*m["trace.session_us"] {
					t.Errorf("self times sum to %v us, session span is %v us", sum, m["trace.session_us"])
				}
				if m["server.self_us"] <= 0 || m["engine.self_us"] <= 0 || m["relmerge.self_us"] <= 0 {
					t.Errorf("a wire layer has no self time: %v", m)
				}
			}
		}
	}
}

// fault selects how a faultySession misbehaves.
type fault struct {
	dropWrites    bool // acknowledge writes without applying them
	acceptInvalid bool // turn constraint violations into success
	staleReads    bool // answer each key with the first tuple ever read for it
}

// faultySession is a Session wrapper that misbehaves in one way.
type faultySession struct {
	relmerge.Session
	fault

	mu    sync.Mutex
	first map[string]relation.Tuple
}

func (s *faultySession) write(apply func() error) error {
	if s.dropWrites {
		return nil
	}
	err := apply()
	if s.acceptInvalid && relmerge.Code(err) == relmerge.CodeConstraint {
		return nil
	}
	return err
}

func (s *faultySession) Insert(rel string, tup relation.Tuple) error {
	return s.write(func() error { return s.Session.Insert(rel, tup) })
}

func (s *faultySession) Update(rel string, key, tup relation.Tuple) error {
	return s.write(func() error { return s.Session.Update(rel, key, tup) })
}

func (s *faultySession) Delete(rel string, key relation.Tuple) error {
	return s.write(func() error { return s.Session.Delete(rel, key) })
}

func (s *faultySession) ApplyBatch(ops []relmerge.BatchOp) error {
	return s.write(func() error { return s.Session.ApplyBatch(ops) })
}

func (s *faultySession) Fetch(rel string, key relation.Tuple) (relation.Tuple, bool, error) {
	tup, ok, err := s.Session.Fetch(rel, key)
	if !s.staleReads || err != nil {
		return tup, ok, err
	}
	k := rel + "\x00" + key.EncodeKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, seen := s.first[k]; seen {
		return old, old != nil, nil
	}
	s.first[k] = tup
	return tup, ok, nil
}

// TestCheckerFlagsFaultySessions: a session that drops acknowledged writes,
// returns stale tuples, or accepts invalid writes must fail the run.
func TestCheckerFlagsFaultySessions(t *testing.T) {
	cases := []struct {
		name, workload string
		fault          fault
	}{
		{"dropped writes, embedded", "star-profile-read", fault{dropWrites: true}},
		{"dropped writes, remote", "chain-merged-write", fault{dropWrites: true}},
		{"stale tuples, remote", "chain-merged-write", fault{staleReads: true}},
		{"stale tuples, sharded", "star-shard-batch", fault{staleReads: true}},
		{"accepted invalid writes, remote", "chain-merged-write", fault{acceptInvalid: true}},
		{"accepted invalid writes, sharded", "star-shard-batch", fault{acceptInvalid: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shortConfig(t, tc.workload, false)
			cfg.wrap = func(s relmerge.Session) relmerge.Session {
				return &faultySession{Session: s, fault: tc.fault, first: map[string]relation.Tuple{}}
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.correct() || res.failed == 0 {
				t.Fatalf("the checker passed a faulty session: attempted %d, failed %d", res.attempted, res.failed)
			}
			t.Logf("flagged %d of %d ops, e.g. %v", res.failed, res.attempted, res.errs[0])
		})
	}
}

func TestUnionWithin(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := unionWithin(ivs, 1, 25); got != 2+7+5 {
		t.Fatalf("unionWithin = %d, want 14", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := relmerge.NewRegistry()
	before := snapshot(reg)
	h := reg.Histogram("perfbench.test_seconds", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1, 2] bucket
	}
	s := snapshot(reg).sub(before).hist("perfbench.test_seconds")
	if q := s.quantile(0.5); q != 1.5 {
		t.Fatalf("median = %v, want 1.5 (middle of the bucket)", q)
	}
	if s.count != 100 {
		t.Fatalf("count = %d", s.count)
	}
	if (&series{}).quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile is not 0")
	}
}

func TestRunRefusesUnknownWorkload(t *testing.T) {
	cfg := shortConfig(t, "nope", false)
	if _, err := run(cfg); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("run(nope) = %v, want an unknown-workload error", err)
	}
}
