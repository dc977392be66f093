package repro

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/nullcon"
	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/translate"
)

// The library-system pipeline: a fresh domain (not one of the paper's
// fixtures) pushed through every stage of the toolchain — EER DSL, MS
// translation, advisor, merge + remove, diff, DDL and migration SQL, dual
// engines with generated data, query-answer equivalence, and persistence.
const libraryEER = `
entity BOOK prefix B attrs (B.ISBN isbn) id (B.ISBN) copybase (ISBN)
entity BRANCH prefix BR attrs (BR.NAME branch) id (BR.NAME)
entity MEMBER prefix M attrs (M.ID member_id) id (M.ID)
entity PUBLISHER prefix PB attrs (PB.NAME publisher) id (PB.NAME)
relationship HELD prefix H parts (BOOK many, BRANCH one)
relationship LOANED prefix L parts (BOOK many, MEMBER one)
relationship ISSUED prefix I parts (BOOK many, PUBLISHER one)
`

func TestLibraryPipeline(t *testing.T) {
	// 1. Parse and translate.
	es, err := sdl.ParseEER(libraryEER)
	if err != nil {
		t.Fatal(err)
	}
	base, err := translate.MS(es)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Relations) != 7 {
		t.Fatalf("base schema has %d relations", len(base.Relations))
	}

	// 2. The EER-level §5.2 condition and the advisor agree that the BOOK
	// cluster is safe and worthwhile under a read-heavy workload.
	if err := es.CheckCondition2("BOOK", []string{"HELD", "LOANED", "ISSUED"}); err != nil {
		t.Fatalf("condition (2): %v", err)
	}
	recs, err := advisor.Advise(base, advisor.Workload{
		ProfileQueries: map[string]float64{"BOOK": 50},
		Inserts:        map[string]float64{"BOOK": 5},
	}, advisor.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].Merge || !recs[0].OnlyNNA {
		t.Fatalf("advisor = %+v", recs)
	}

	// 3. Merge and remove; the result is only-NNA and BCNF.
	m, err := core.Merge(base, recs[0].Cluster, "BOOK+")
	if err != nil {
		t.Fatal(err)
	}
	if removed := m.RemoveAll(); len(removed) != 3 {
		t.Fatalf("removed %v", removed)
	}
	if !nullcon.OnlyNNA(m.Schema.NullsOf("BOOK+")) || !core.AllBCNF(m.Schema) {
		t.Fatal("merged schema should be only-NNA and BCNF")
	}

	// 4. Diff, DDL, and migration SQL are all well-formed.
	changes := diff.Schemas(base, m.Schema)
	if len(changes) == 0 {
		t.Fatal("diff should report changes")
	}
	ddlOut, err := ddl.Generate(m.Schema, ddl.Options{Dialect: ddl.DB2})
	if err != nil {
		t.Fatalf("the only-NNA result must be DB2-expressible: %v", err)
	}
	if !strings.Contains(ddlOut, "CREATE TABLE BOOKp") {
		t.Error("merged table missing from DDL")
	}
	migration := ddl.MigrationSQL(m)
	if !strings.Contains(migration, "LEFT OUTER JOIN HELD") {
		t.Errorf("migration SQL:\n%s", migration)
	}

	// 5. Dual engines over the same generated data.
	rng := rand.New(rand.NewSource(20260704))
	st := state.MustGenerate(base, rng, state.GenOptions{
		Rows:    40,
		RowsPer: map[string]int{"HELD": 30, "LOANED": 15, "ISSUED": 25},
	})
	baseDB := engine.MustOpen(base)
	if err := baseDB.Load(st); err != nil {
		t.Fatal(err)
	}
	mergedDB := engine.MustOpen(m.Schema)
	if err := mergedDB.Load(m.MapState(st)); err != nil {
		t.Fatal(err)
	}

	// 6. Query-answer equivalence: for every book, the navigational answer
	// on the base engine equals the single-row answer on the merged engine.
	books := st.Relation("BOOK")
	mergedRel := mergedDB.Relation("BOOK+")
	for _, bk := range books.Tuples() {
		key := relation.Tuple{bk[0]}
		row, ok := mergedDB.GetByKey("BOOK+", key)
		if !ok {
			t.Fatalf("book %v missing from merged engine", key)
		}
		for member, attr := range map[string]string{
			"HELD": "H.BR.NAME", "LOANED": "L.M.ID", "ISSUED": "I.PB.NAME",
		} {
			baseTup, baseOK := baseDB.GetByKey(member, key)
			mergedVal := row[mergedRel.Position(attr)]
			switch {
			case baseOK && mergedVal.IsNull():
				t.Fatalf("book %v: %s present in base, null in merged", key, member)
			case !baseOK && !mergedVal.IsNull():
				t.Fatalf("book %v: %s absent in base, non-null in merged", key, member)
			case baseOK:
				rel := baseDB.Relation(member)
				if !baseTup[rel.Position(attr)].Identical(mergedVal) {
					t.Fatalf("book %v: %s values disagree", key, member)
				}
			}
		}
	}

	// 7. The merged engine costs one lookup per profile vs. four.
	base0, merged0 := baseDB.Stats(), mergedDB.Stats()
	for _, bk := range books.Tuples() {
		key := relation.Tuple{bk[0]}
		for _, member := range []string{"BOOK", "HELD", "LOANED", "ISSUED"} {
			baseDB.GetByKey(member, key)
		}
		mergedDB.GetByKey("BOOK+", key)
	}
	baseLookups := baseDB.Stats().Sub(base0).IndexLookups
	mergedLookups := mergedDB.Stats().Sub(merged0).IndexLookups
	if mergedLookups*4 != baseLookups {
		t.Errorf("lookups: base %d, merged %d", baseLookups, mergedLookups)
	}

	// 8. Persistence round trip of the merged engine.
	path := filepath.Join(t.TempDir(), "library.data")
	if err := mergedDB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mergedDB2 := engine.MustOpen(m.Schema)
	if err := mergedDB2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !mergedDB2.Snapshot().Equal(mergedDB.Snapshot()) {
		t.Error("persistence round trip failed")
	}

	// 9. And the information-capacity round trip holds on the real data.
	if !m.RoundTrip(st) {
		t.Error("η′∘η ≠ id on the library data")
	}
}
