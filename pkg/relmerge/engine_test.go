package relmerge_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/pkg/relmerge"
)

// The facade stands up an engine from the figure 3 state, serves lookups, and
// applies batched mutations atomically — all without importing internal/.
func TestFacadeEngine(t *testing.T) {
	reg := relmerge.NewRegistry()
	e, err := relmerge.ReplayCtx(context.Background(), relmerge.Fig3(), relmerge.Fig3State(),
		relmerge.WithEngineRegistry(reg), relmerge.WithEngineName("base"))
	if err != nil {
		t.Fatal(err)
	}
	key := relmerge.Tuple{relmerge.NewString("c1")}
	if _, ok := e.GetByKey("COURSE", key); !ok {
		t.Fatal("replayed engine is missing COURSE c1")
	}

	// One atomic batch: a fresh course plus its offering. The insert order
	// matters to the foreign keys and the batch preserves it.
	err = e.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
		relmerge.Ins("COURSE", relmerge.Tuple{relmerge.NewString("c9")}),
		relmerge.Ins("OFFER", relmerge.Tuple{relmerge.NewString("c9"), relmerge.NewString("math")}),
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, ok := e.GetByKey("OFFER", relmerge.Tuple{relmerge.NewString("c9")}); !ok {
		t.Error("batched OFFER row did not land")
	}

	// A violation anywhere rolls the whole batch back.
	before := e.Count("COURSE")
	err = e.ApplyBatchCtx(context.Background(), []relmerge.BatchOp{
		relmerge.Ins("COURSE", relmerge.Tuple{relmerge.NewString("c10")}),
		relmerge.Ins("OFFER", relmerge.Tuple{relmerge.NewString("c10"), relmerge.NewString("no-such-dept")}),
	})
	var cv *relmerge.ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("bad batch error = %v, want a ConstraintViolation", err)
	}
	if got := e.Count("COURSE"); got != before {
		t.Errorf("failed batch leaked a COURSE row: %d -> %d", before, got)
	}

	// Stats reads the injected registry's db=base series: exactly the two
	// GetByKey calls above.
	var regLookups int
	for _, p := range relmerge.Snapshot(reg) {
		if p.Name == "engine.lookups" && p.Labels["db"] == "base" {
			regLookups = int(p.Value)
		}
	}
	if got := e.Stats().Lookups; got != 2 || regLookups != 2 {
		t.Errorf("lookups: Stats()=%d, series=%d, want 2", got, regLookups)
	}
}

// WithAccessDelay is accepted through the facade and slows operations down —
// the knob the scaling benchmark uses.
func TestFacadeEngineAccessDelay(t *testing.T) {
	e, err := relmerge.OpenEngine(relmerge.Fig3(), relmerge.WithAccessDelay(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.Insert("COURSE", relmerge.Tuple{relmerge.NewString("c1")}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("insert with 2ms access delay returned in %v", elapsed)
	}
}
