package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/state"
)

func BenchmarkInsertDeclarative(b *testing.B) {
	// Figure 3's OFFER: NOT NULL + PK + two key-based FKs, all indexed.
	db := MustOpen(figures.Fig3())
	for i := 0; i < 1024; i++ {
		db.Insert("COURSE", relation.Tuple{relation.NewString(fmt.Sprintf("c%d", i))})
	}
	db.Insert("DEPARTMENT", relation.Tuple{relation.NewString("math")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		course := fmt.Sprintf("c%d", i%1024)
		db.Insert("OFFER", relation.Tuple{relation.NewString(course), relation.NewString("math")})
		b.StopTimer()
		db.Delete("OFFER", relation.Tuple{relation.NewString(course)})
		b.StartTimer()
	}
}

func BenchmarkInsertProcedural(b *testing.B) {
	// Figure 6's COURSE'': two null-existence constraints fire per insert.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		b.Fatal(err)
	}
	m.RemoveAll()
	db := MustOpen(m.Schema)
	db.Insert("DEPARTMENT", relation.Tuple{relation.NewString("math")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := relation.NewString(fmt.Sprintf("c%d", i))
		tup := relation.Tuple{key, relation.NewString("math"), relation.Null(), relation.Null()}
		if err := db.Insert("COURSE''", tup); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Delete("COURSE''", relation.Tuple{key})
		b.StartTimer()
	}
}

func BenchmarkGetByKey(b *testing.B) {
	db := MustOpen(figures.Fig3())
	keys := make([]relation.Tuple, 4096)
	for i := range keys {
		keys[i] = relation.Tuple{relation.NewString(fmt.Sprintf("c%d", i))}
		db.Insert("COURSE", keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.GetByKey("COURSE", keys[i%len(keys)])
	}
}

// BenchmarkLoad bulk-loads a Figure 3 state of 2000 courses — each offered,
// taught and assisted — with its 4000 people, into a fresh engine per
// iteration: the whole-state path that Open-time loads and durable recovery
// take, every constraint checked.
func BenchmarkLoad(b *testing.B) {
	const n = 2000
	st := state.New(figures.Fig3())
	add := func(rel string, vals ...string) {
		tup := make(relation.Tuple, len(vals))
		for i, v := range vals {
			tup[i] = relation.NewString(v)
		}
		st.Relation(rel).Add(tup)
	}
	for d := 0; d < n/20; d++ {
		add("DEPARTMENT", fmt.Sprintf("d%d", d))
	}
	for i := 0; i < n; i++ {
		c, f, s := fmt.Sprintf("c%d", i), fmt.Sprintf("f%d", i), fmt.Sprintf("s%d", i)
		add("PERSON", f)
		add("PERSON", s)
		add("FACULTY", f)
		add("STUDENT", s)
		add("COURSE", c)
		add("OFFER", c, fmt.Sprintf("d%d", i%(n/20)))
		add("TEACH", c, f)
		add("ASSIST", c, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MustOpen(figures.Fig3()).Load(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchWithReferences(b *testing.B) {
	db := MustOpen(figures.Fig3())
	db.Insert("COURSE", relation.Tuple{relation.NewString("c1")})
	db.Insert("DEPARTMENT", relation.Tuple{relation.NewString("math")})
	db.Insert("PERSON", relation.Tuple{relation.NewString("p1")})
	db.Insert("FACULTY", relation.Tuple{relation.NewString("p1")})
	db.Insert("OFFER", relation.Tuple{relation.NewString("c1"), relation.NewString("math")})
	db.Insert("TEACH", relation.Tuple{relation.NewString("c1"), relation.NewString("p1")})
	key := relation.Tuple{relation.NewString("c1")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.FetchWithReferences("TEACH", key); err != nil {
			b.Fatal(err)
		}
	}
}
