package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nullcon"
	"repro/internal/schema"
	"repro/internal/translate"
)

func TestStarEERShape(t *testing.T) {
	es := StarEER(3)
	if err := es.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(es.Entities) != 4 || len(es.Relationships) != 3 {
		t.Errorf("star(3): %d entities, %d relationships", len(es.Entities), len(es.Relationships))
	}
	// The star satisfies §5.2 condition (2) for E0.
	if err := es.CheckCondition2("E0", []string{"R1", "R2", "R3"}); err != nil {
		t.Errorf("star should satisfy condition (2): %v", err)
	}
}

func TestChainEERShape(t *testing.T) {
	es := ChainEER(3)
	if err := es.Validate(); err != nil {
		t.Fatal(err)
	}
	// The chain does NOT satisfy condition (2) for E0 beyond R1: R2 hangs
	// off R1, and R1 is involved in R2 (condition 2b).
	if es.CheckCondition2("E0", []string{"R1", "R2"}) == nil {
		t.Error("chain should fail condition (2)")
	}
}

func TestHierarchyEERShape(t *testing.T) {
	one := HierarchyEER(3, 1)
	if err := one.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := one.CheckCondition1("P", []string{"S1", "S2", "S3"}); err != nil {
		t.Errorf("hierarchy(k=1) should satisfy condition (1): %v", err)
	}
	two := HierarchyEER(2, 2)
	if two.CheckCondition1("P", []string{"S1", "S2"}) == nil {
		t.Error("hierarchy(k=2) should fail condition (1c)")
	}
}

// The star merges to an only-NNA relation (Prop. 5.2); the chain retains a
// null-existence constraint chain.
func TestMergedConstraintRegimes(t *testing.T) {
	star, err := translate.MS(StarEER(3))
	if err != nil {
		t.Fatal(err)
	}
	names := MergeSetFor(star, "E0")
	if len(names) != 4 {
		t.Fatalf("star merge set = %v", names)
	}
	m, err := core.Merge(star, names, "MERGED")
	if err != nil {
		t.Fatal(err)
	}
	if removed := m.RemoveAll(); len(removed) != 3 {
		t.Errorf("star removals = %v", removed)
	}
	if !nullcon.OnlyNNA(m.Schema.NullsOf("MERGED")) {
		t.Errorf("star merged constraints should be only NNA: %v", m.Schema.NullsOf("MERGED"))
	}

	chain, err := translate.MS(ChainEER(3))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := core.Merge(chain, MergeSetFor(chain, "E0"), "MERGED")
	if err != nil {
		t.Fatal(err)
	}
	mc.RemoveAll()
	if nullcon.OnlyNNA(mc.Schema.NullsOf("MERGED")) {
		t.Error("chain merged constraints should include null-existence constraints")
	}
	// The chain of n relationships leaves n-1 null-existence constraints
	// (R2 ⊑ R1, R3 ⊑ R2) plus the NNA on the key.
	nes := 0
	for _, nc := range mc.Schema.NullsOf("MERGED") {
		if ne, ok := nc.(schema.NullExistence); ok && !ne.IsNNA() {
			nes++
		}
	}
	if nes != 2 {
		t.Errorf("chain(3) should leave 2 null-existence constraints, got %d", nes)
	}
}

func TestNewBenchStar(t *testing.T) {
	b, err := NewBench(StarEER(4), "E0", 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Keys) == 0 {
		t.Fatal("no center keys")
	}

	// The profile query finds the same object both ways, with fewer lookups
	// on the merged side.
	base0, merged0 := b.Base.Stats(), b.Merged.Stats()
	for _, k := range b.Keys {
		b.ProfileBase(k)
		if got := b.ProfileMerged(k); got != 1 {
			t.Errorf("merged profile missing key %v", k)
		}
	}
	baseLookups := b.Base.Stats().Sub(base0).IndexLookups
	mergedLookups := b.Merged.Stats().Sub(merged0).IndexLookups
	if mergedLookups*4 > baseLookups {
		t.Errorf("merged lookups %d should be ~5x below base %d", mergedLookups, baseLookups)
	}

	// Semantics agree: the base profile count matches the number of non-null
	// member parts in the merged row.
	for _, k := range b.Keys {
		baseFound := b.ProfileBase(k)
		row, ok := b.Merged.GetByKey(b.Scheme.Name, k)
		if !ok {
			t.Fatalf("key %v missing from merged relation", k)
		}
		mergedParts := 1 // E0 is always present (it is the key-relation)
		rel := b.Merged.Relation(b.Scheme.Name)
		for _, mb := range b.Scheme.Members[1:] {
			// A member part is present iff its surviving attribute is non-null.
			present := true
			for _, a := range mb.Attrs {
				if p := rel.Position(a); p >= 0 && row[p].IsNull() {
					present = false
				}
			}
			if present {
				mergedParts++
			}
		}
		if baseFound != mergedParts {
			t.Errorf("key %v: base found %d parts, merged row shows %d", k, baseFound, mergedParts)
		}
	}
}

func TestInsertMergedRowBothRegimes(t *testing.T) {
	star, err := NewBench(StarEER(3), "E0", 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	before := star.Merged.Stats()
	for i := 0; i < 5; i++ {
		if err := star.InsertMergedRow(); err != nil {
			t.Fatal(err)
		}
	}
	if fired := star.Merged.Stats().Sub(before).TriggerFirings; fired != 0 {
		t.Errorf("star merged inserts should be fully declarative, fired %d triggers", fired)
	}

	chain, err := NewBench(ChainEER(3), "E0", 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	before = chain.Merged.Stats()
	for i := 0; i < 5; i++ {
		if err := chain.InsertMergedRow(); err != nil {
			t.Fatal(err)
		}
	}
	if chain.Merged.Stats().Sub(before).TriggerFirings == 0 {
		t.Error("chain merged inserts must fire null-constraint triggers")
	}
}

func TestNewBenchErrors(t *testing.T) {
	if _, err := NewBench(StarEER(0), "E0", 5, 1); err == nil {
		t.Error("merge set of one should fail")
	}
	if _, err := NewBench(StarEER(2), "NOPE", 5, 1); err == nil {
		t.Error("unknown root should fail")
	}
}

func TestMergeSetForChain(t *testing.T) {
	chain, err := translate.MS(ChainEER(2))
	if err != nil {
		t.Fatal(err)
	}
	names := MergeSetFor(chain, "E0")
	want := map[string]bool{"E0": true, "R1": true, "R2": true}
	if len(names) != len(want) {
		t.Fatalf("MergeSetFor = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected member %s", n)
		}
	}
}
