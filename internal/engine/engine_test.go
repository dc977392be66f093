package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/state"
)

func str(s string) relation.Value { return relation.NewString(s) }

func tup(vals ...any) relation.Tuple {
	out := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = relation.Null()
		case string:
			out[i] = relation.NewString(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

func mustInsert(t *testing.T, db *DB, name string, tp relation.Tuple) {
	t.Helper()
	if err := db.Insert(name, tp); err != nil {
		t.Fatal(err)
	}
}

func openFig3(t *testing.T) *DB {
	t.Helper()
	db, err := Open(figures.Fig3())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInsertAndLookup(t *testing.T) {
	db := openFig3(t)
	if err := db.Insert("COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
	got, ok := db.GetByKey("COURSE", tup("c1"))
	if !ok || !got.Identical(tup("c1")) {
		t.Error("GetByKey after insert")
	}
	if _, ok := db.GetByKey("COURSE", tup("c2")); ok {
		t.Error("missing key should not be found")
	}
	if db.Count("COURSE") != 1 {
		t.Error("Count")
	}
}

func TestInsertNotNull(t *testing.T) {
	db := openFig3(t)
	err := db.Insert("COURSE", tup(nil))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != NotNullViolation {
		t.Fatalf("want NotNullViolation, got %v", err)
	}
	if cv.Relation != "COURSE" || cv.Attr != "C.NR" {
		t.Errorf("violation fields = %+v", cv)
	}
	if !errors.Is(err, ErrConstraintViolation) {
		t.Error("violation should match ErrConstraintViolation")
	}
	if !cv.Kind.Declarative() {
		t.Error("NOT NULL is a declarative-regime constraint")
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	db := openFig3(t)
	db.Insert("COURSE", tup("c1"))
	db.Insert("DEPARTMENT", tup("math"))
	if err := db.Insert("OFFER", tup("c1", "math")); err != nil {
		t.Fatal(err)
	}
	db.Insert("DEPARTMENT", tup("cs"))
	err := db.Insert("OFFER", tup("c1", "cs"))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != PrimaryKeyViolation {
		t.Fatalf("want PrimaryKeyViolation, got %v", err)
	}
	if cv.Relation != "OFFER" {
		t.Errorf("violation fields = %+v", cv)
	}
}

func TestInsertForeignKey(t *testing.T) {
	db := openFig3(t)
	err := db.Insert("OFFER", tup("c1", "math"))
	if err == nil {
		t.Fatal("dangling foreign key should be rejected")
	}
	db.Insert("COURSE", tup("c1"))
	db.Insert("DEPARTMENT", tup("math"))
	if err := db.Insert("OFFER", tup("c1", "math")); err != nil {
		t.Fatal(err)
	}
	if before := db.Stats().TriggerFirings; before != 0 {
		t.Errorf("figure 3 is fully declarative; no triggers should fire, got %d", before)
	}
}

func TestDeleteRestrict(t *testing.T) {
	db := openFig3(t)
	db.Insert("COURSE", tup("c1"))
	db.Insert("DEPARTMENT", tup("math"))
	db.Insert("OFFER", tup("c1", "math"))
	err := db.Delete("COURSE", tup("c1"))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != RestrictViolation {
		t.Fatalf("want RestrictViolation, got %v", err)
	}
	if cv.Op != "delete" || cv.Kind.Declarative() {
		t.Errorf("restrict violation should be a trigger-regime delete, got %+v", cv)
	}
	if err := db.Delete("OFFER", tup("c1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("COURSE", tup("c1")); err != nil {
		t.Fatalf("after removing the referencing tuple the delete should pass: %v", err)
	}
	if err := db.Delete("COURSE", tup("c1")); err == nil {
		t.Error("deleting a missing tuple should fail")
	}
}

func TestUpdate(t *testing.T) {
	db := openFig3(t)
	db.Insert("COURSE", tup("c1"))
	db.Insert("DEPARTMENT", tup("math"))
	db.Insert("DEPARTMENT", tup("cs"))
	db.Insert("OFFER", tup("c1", "math"))
	if err := db.Update("OFFER", tup("c1"), tup("c1", "cs")); err != nil {
		t.Fatal(err)
	}
	got, _ := db.GetByKey("OFFER", tup("c1"))
	if !got.Identical(tup("c1", "cs")) {
		t.Errorf("update not applied: %v", got)
	}
	// Updating to a dangling FK rolls back.
	if err := db.Update("OFFER", tup("c1"), tup("c1", "physics")); err == nil {
		t.Fatal("dangling FK update should fail")
	}
	got, _ = db.GetByKey("OFFER", tup("c1"))
	if !got.Identical(tup("c1", "cs")) {
		t.Errorf("failed update must roll back, got %v", got)
	}
	// Updating a referenced key is restricted.
	db.Insert("PERSON", tup("p1"))
	db.Insert("FACULTY", tup("p1"))
	if err := db.Update("PERSON", tup("p1"), tup("p9")); err == nil {
		t.Error("updating a referenced key should be restricted")
	}
}

func TestProceduralNullConstraints(t *testing.T) {
	// The figure 6 schema: COURSE'' carries null-existence constraints that
	// must be enforced procedurally.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		t.Fatal(err)
	}
	m.RemoveAll()
	db := MustOpen(m.Schema)
	db.Insert("DEPARTMENT", tup("math"))
	db.Insert("PERSON", tup("p1"))
	db.Insert("FACULTY", tup("p1"))

	// A course with a TEACH part but no OFFER part violates
	// T.F.SSN ⊑ O.D.NAME.
	err = db.Insert("COURSE''", tup("c1", nil, "p1", nil))
	var cv *ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != NullConstraintViolation {
		t.Fatalf("want NullConstraintViolation, got %v", err)
	}
	if cv.Constraint == "" || cv.Kind.Declarative() {
		t.Errorf("null constraint should carry its rendering and be trigger-regime, got %+v", cv)
	}
	if db.Stats().TriggerFirings == 0 {
		t.Error("procedural constraint should count as a trigger firing")
	}
	// With the OFFER part present it passes.
	if err := db.Insert("COURSE''", tup("c1", "math", "p1", nil)); err != nil {
		t.Fatal(err)
	}
}

func TestNonKeyBasedINDTrigger(t *testing.T) {
	// Figure 4's schema: ASSIST[A.C.NR] ⊆ COURSE'[O.C.NR] is non-key-based.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(m.Schema)
	db.Insert("DEPARTMENT", tup("math"))
	db.Insert("PERSON", tup("p2"))
	db.Insert("STUDENT", tup("p2"))
	// COURSE' rows: c1 with an OFFER part, c2 without.
	if err := db.Insert("COURSE'", tup("c1", "c1", "math", nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("COURSE'", tup("c2", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}

	fires := db.Stats().TriggerFirings
	// ASSIST referencing c1 (an offered course) passes.
	if err := db.Insert("ASSIST", tup("c1", "p2")); err != nil {
		t.Fatal(err)
	}
	if db.Stats().TriggerFirings <= fires {
		t.Error("non-key-based dependency must fire a trigger")
	}
	// ASSIST referencing c2 (not offered: O.C.NR is null) fails.
	if err := db.Insert("ASSIST", tup("c2", "p2")); err == nil {
		t.Error("referencing a null O.C.NR should fail the inclusion dependency")
	}
	// ASSIST referencing an unknown course fails.
	if err := db.Insert("ASSIST", tup("c9", "p2")); err == nil {
		t.Error("dangling non-key-based reference should fail")
	}
}

func TestLoadAndSnapshot(t *testing.T) {
	s := figures.Fig3()
	rng := rand.New(rand.NewSource(31))
	st := state.MustGenerate(s, rng, state.GenOptions{Rows: 10})
	db := MustOpen(s)
	if err := db.Load(st); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if !snap.Equal(st) {
		t.Error("snapshot should equal the loaded state")
	}
	if err := state.Consistent(s, snap); err != nil {
		t.Error(err)
	}
}

// A window taken with Sub counts exactly the operations inside it: the
// inserts, delete, and lookup before it do not leak in, and the stamp is the
// closing snapshot's LSN.
func TestStatsAccounting(t *testing.T) {
	db := openFig3(t)
	for _, c := range []string{"c1", "c2", "c3"} {
		mustInsert(t, db, "COURSE", tup(c))
	}
	db.GetByKey("COURSE", tup("c1"))
	if err := db.Delete("COURSE", tup("c3")); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()

	mustInsert(t, db, "COURSE", tup("c4"))
	if err := db.Delete("COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
	db.GetByKey("COURSE", tup("c2"))
	after := db.Stats()

	got := after.Sub(before)
	if got.Inserts != 1 || got.Deletes != 1 || got.Updates != 0 || got.Lookups != 1 ||
		got.VersionLSN != after.VersionLSN {
		t.Errorf("window = %+v, want 1 insert, 1 delete, 1 lookup, LSN %d", got, after.VersionLSN)
	}
	if after.VersionLSN <= before.VersionLSN {
		t.Errorf("window LSN stamp %d did not advance past %d", after.VersionLSN, before.VersionLSN)
	}
}

func TestErrors(t *testing.T) {
	db := openFig3(t)
	if err := db.Insert("NOPE", tup("x")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation insert: %v", err)
	}
	if err := db.Insert("COURSE", tup("a", "b")); !errors.Is(err, ErrArityMismatch) {
		t.Errorf("arity mismatch: %v", err)
	}
	if err := db.Delete("NOPE", tup("x")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation delete: %v", err)
	}
	if err := db.Update("NOPE", tup("x"), tup("y")); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation update: %v", err)
	}
	if err := db.Update("COURSE", tup("missing"), tup("x")); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("updating a missing tuple: %v", err)
	}
	if db.Relation("NOPE") != nil || db.Count("NOPE") != 0 {
		t.Error("unknown relation accessors")
	}
	if err := db.Scan("NOPE", nil, func(relation.Tuple) {}); err == nil {
		t.Error("unknown relation scan")
	}
}

func TestScan(t *testing.T) {
	db := openFig3(t)
	db.Insert("COURSE", tup("c1"))
	db.Insert("COURSE", tup("c2"))
	var seen int
	db.Scan("COURSE", func(tp relation.Tuple) bool {
		return tp[0].AsString() == "c2"
	}, func(relation.Tuple) { seen++ })
	if seen != 1 {
		t.Errorf("Scan matched %d", seen)
	}
	if got := db.Stats().TuplesScanned; got != 2 {
		t.Errorf("TuplesScanned = %d", got)
	}
}

func TestContextCancellation(t *testing.T) {
	db := openFig3(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.InsertCtx(ctx, "COURSE", tup("c1")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled insert: %v", err)
	}
	if db.Count("COURSE") != 0 {
		t.Error("cancelled insert must not mutate state")
	}
	db.Insert("COURSE", tup("c1"))
	if err := db.DeleteCtx(ctx, "COURSE", tup("c1")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled delete: %v", err)
	}
	if err := db.UpdateCtx(ctx, "COURSE", tup("c1"), tup("c2")); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled update: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	st := state.MustGenerate(figures.Fig3(), rng, state.GenOptions{Rows: 5})
	fresh := MustOpen(figures.Fig3())
	if err := fresh.LoadCtx(ctx, st); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled load: %v", err)
	}
}

// TestStatsScriptedHistory checks the cost counters against a known
// history: N acknowledged COURSE inserts, one NOT NULL violation, and one
// fetch. COURSE has one attribute, no foreign keys, and no procedural
// constraints, so each acknowledged insert costs a NOT NULL and a primary-key
// check plus one index probe; the violation stops at its NOT NULL check.
func TestStatsScriptedHistory(t *testing.T) {
	const n = 5
	reg := obs.NewRegistry()
	db, err := Open(figures.Fig3(), WithRegistry(reg), WithName("base"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Registry() != reg || db.MetricName() != "base" {
		t.Error("WithRegistry/WithName accessors")
	}
	for i := 0; i < n; i++ {
		mustInsert(t, db, "COURSE", tup(fmt.Sprintf("c%d", i)))
	}
	if err := db.Insert("COURSE", tup(nil)); err == nil {
		t.Fatal("a null key must be refused")
	}
	if _, ok := db.GetByKey("COURSE", tup("c1")); !ok {
		t.Fatal("acknowledged insert not fetchable")
	}

	got := db.Stats()
	want := StatsSnapshot{
		Inserts:           n,
		Lookups:           1,
		DeclarativeChecks: 2*n + 1,
		IndexLookups:      n + 1,
		VersionLSN:        db.VersionLSN(),
	}
	if got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
	series := map[string]int{}
	for _, p := range reg.Snapshot() {
		if p.Kind == obs.KindCounter && p.Labels["db"] == "base" {
			series[p.Name] = int(p.Value)
		}
	}
	for name, w := range map[string]int{
		"engine.inserts":               n,
		"engine.lookups":               1,
		"engine.constraint_violations": 1,
	} {
		if series[name] != w {
			t.Errorf("%s = %d, want %d", name, series[name], w)
		}
	}
}
