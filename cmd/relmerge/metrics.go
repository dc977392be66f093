package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/figures"
	"repro/internal/nullcon"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
	"repro/pkg/relmerge"
)

// replayState picks the database state to replay for the metrics report: the
// -data file when given, the deterministic figure 3 state under -fig3, and a
// seeded generated state otherwise.
func replayState(s *schema.Schema, dataPath string, fig3 bool) (*state.DB, error) {
	if dataPath != "" {
		data, err := os.ReadFile(dataPath)
		if err != nil {
			return nil, err
		}
		return sdl.ParseState(s, string(data))
	}
	if fig3 {
		return figures.Fig3State(), nil
	}
	return state.Generate(s, rand.New(rand.NewSource(1)), state.GenOptions{Rows: 16})
}

// durableStatus reports one durable engine's lifecycle for the report: what
// Open recovered and that the replay was checkpointed.
type durableStatus struct {
	DB           string `json:"db"`
	Policy       string `json:"policy"`
	Recovered    bool   `json:"recovered"`
	ReplayedOps  int    `json:"replayed_ops"`
	Checkpointed bool   `json:"checkpointed"`
}

// metricsReport replays st into both physical designs — the original schema
// and the merged one, sharing a single registry under db=base / db=merged
// labels — then writes the combined metrics and span report.
// With durableDir set both engines write-ahead log under it (base/ and
// merged/) at the given fsync policy and the replay ends in a checkpoint; a
// directory holding a previous run's log is recovered instead of replayed.
func metricsReport(w io.Writer, s *schema.Schema, m *core.MergedScheme, st *state.DB, tracer *obs.Tracer, mode, durableDir string, policy wal.SyncPolicy) error {
	reg := obs.NewRegistry()
	fd.RegisterMetrics(reg)
	nullcon.RegisterMetrics(reg)
	// Both replay engines come from the unified relmerge.Open entrypoint —
	// the same constructor the quickstart, the benchmarks, and any embedded
	// caller use — sharing one registry under db=base / db=merged labels.
	openSide := func(name string, sc *schema.Schema) (*relmerge.EmbeddedSession, error) {
		cfg := relmerge.Config{
			Schema:        sc,
			Registry:      reg,
			EngineOptions: []relmerge.EngineOption{relmerge.WithEngineName(name)},
		}
		if durableDir != "" {
			cfg.DurableDir = filepath.Join(durableDir, name)
			cfg.Sync = policy
		}
		sess, err := relmerge.Open(cfg)
		if err != nil {
			return nil, err
		}
		return sess.(*relmerge.EmbeddedSession), nil
	}
	baseSess, err := openSide("base", s)
	if err != nil {
		return err
	}
	defer baseSess.Close()
	mergedSess, err := openSide("merged", m.Schema)
	if err != nil {
		return err
	}
	defer mergedSess.Close()
	base, merged := baseSess.Engine(), mergedSess.Engine()
	// The replay runs through the Session API — the same surface the remote
	// client exposes — so this report measures what any session-based caller
	// would. A recovered engine already holds the previous run's replay
	// (recovery IS the demonstration); loading on top would collide on
	// primary keys.
	ctx := context.Background()
	if !base.Recovered().Recovered {
		if err := relmerge.ReplayState(ctx, baseSess, s, st); err != nil {
			return fmt.Errorf("relmerge: replaying state into the base engine: %w", err)
		}
	}
	if !merged.Recovered().Recovered {
		if err := relmerge.ReplayState(ctx, mergedSess, m.Schema, m.MapState(st)); err != nil {
			return fmt.Errorf("relmerge: replaying state into the merged engine: %w", err)
		}
	}
	var durables []durableStatus
	if durableDir != "" {
		for _, sess := range []*relmerge.EmbeddedSession{baseSess, mergedSess} {
			e := sess.Engine()
			if err := sess.Checkpoint(); err != nil {
				return fmt.Errorf("relmerge: checkpointing the %s engine: %w", e.MetricName(), err)
			}
			durables = append(durables, durableStatus{
				DB:           e.MetricName(),
				Policy:       policy.String(),
				Recovered:    e.Recovered().Recovered,
				ReplayedOps:  e.Recovered().ReplayedOps,
				Checkpointed: true,
			})
		}
	}

	switch mode {
	case "json":
		type span struct {
			Name     string            `json:"name"`
			Depth    int               `json:"depth"`
			Duration time.Duration     `json:"duration_ns"`
			Attrs    map[string]string `json:"attrs,omitempty"`
		}
		doc := struct {
			Metrics    []obs.Point     `json:"metrics"`
			Spans      []span          `json:"spans,omitempty"`
			Durability []durableStatus `json:"durability,omitempty"`
		}{Metrics: reg.Snapshot(), Durability: durables}
		if tracer != nil {
			for _, ev := range tracer.Events() {
				doc.Spans = append(doc.Spans, span{Name: ev.Name, Depth: ev.Depth, Duration: ev.Duration, Attrs: ev.Attrs})
			}
		}
		data, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, data, "", "  "); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, pretty.String())
		return err
	case "text":
		if err := reg.WriteText(w); err != nil {
			return err
		}
		if tracer != nil {
			for _, ev := range tracer.Events() {
				fmt.Fprintf(w, "span %s depth=%d duration=%s\n", ev.Name, ev.Depth, ev.Duration)
			}
		}
		for _, d := range durables {
			fmt.Fprintf(w, "durable{db=%q,policy=%q} recovered=%v replayed_ops=%d checkpointed=%v\n",
				d.DB, d.Policy, d.Recovered, d.ReplayedOps, d.Checkpointed)
		}
		return nil
	default:
		return fmt.Errorf("relmerge: unknown -metrics mode %q (want json or text)", mode)
	}
}
