package main

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// arms is the number of relationship-sets of the star and chain designs
// (StarEER(8), ChainEER(8)): each object has up to eight R_i rows, R_i
// referencing the target entity-set T_i.
const arms = 8

// object is one modelled object of a client's key range: the E0 key it owns
// and which of its R_i rows exist, with the T_i key each one refers to. The
// client that owns the range is its only writer, so the model is exact.
type object struct {
	key     relation.Tuple // the one-value primary key shared by all its rows
	present bool
	mask    uint8 // star: bit i-1 set = the R_i row exists
	depth   uint8 // chain: R_1..R_depth exist (the merged row's chain length)
	tref    [arms]uint16
}

// tKeys holds the precomputed T_i key values: vals[i][j] is key j of T_{i+1}.
// dangling[i] is a T_{i+1} key that is never loaded, for invalid writes.
type tKeys struct {
	vals     [][]relation.Value
	dangling []relation.Value
}

func newTKeys(perT int) *tKeys {
	tk := &tKeys{vals: make([][]relation.Value, arms), dangling: make([]relation.Value, arms)}
	for i := range tk.vals {
		tk.vals[i] = make([]relation.Value, perT)
		for j := range tk.vals[i] {
			tk.vals[i][j] = relation.NewString(fmt.Sprintf("t%d-%05d", i+1, j))
		}
		tk.dangling[i] = relation.NewString(fmt.Sprintf("t%d-none", i+1))
	}
	return tk
}

// objectKey is the primary key of slot i of client c. The digit after the
// "o" names the owning client, which the traced Backend uses to attribute
// engine calls to the connection that caused them.
func objectKey(c, i int) relation.Tuple {
	return relation.Tuple{relation.NewString(fmt.Sprintf("o%d-%07d", c, i))}
}

// ownerOf returns the client that owns an object key value, or -1.
func ownerOf(v relation.Value) int {
	if v.Kind() != relation.KindString {
		return -1
	}
	s := v.AsString()
	if len(s) < 2 || s[0] != 'o' || s[1] < '0' || s[1] > '9' {
		return -1
	}
	return int(s[1] - '0')
}

// newObjects precomputes a client's key range: the first loaded slots are
// present, the rest are a reserve for inserts. Star objects get each R_i row
// with probability pArm; chain objects a chain length uniform in 0..arms.
func newObjects(rng *rand.Rand, client, loaded, reserve, perT int, pArm float64) []object {
	objs := make([]object, loaded+reserve)
	for i := range objs {
		o := &objs[i]
		o.key = objectKey(client, i)
		o.present = i < loaded
		for a := 0; a < arms; a++ {
			if rng.Float64() < pArm {
				o.mask |= 1 << a
			}
			o.tref[a] = uint16(rng.Intn(perT))
		}
		o.depth = uint8(rng.Intn(arms + 1))
	}
	return objs
}

// starLayout is the attribute layout of the translated StarEER(8) design:
// relation names and, for each R_i, the positions of its key and T_i
// reference, read from the schema rather than assumed.
type starLayout struct {
	schema *schema.Schema
	rel    [arms]string
	tRel   [arms]string
	keyPos [arms]int
	refPos [arms]int
}

func newStarLayout() (*starLayout, error) {
	s, err := translate.MS(workload.StarEER(arms))
	if err != nil {
		return nil, err
	}
	l := &starLayout{schema: s}
	for i := 0; i < arms; i++ {
		l.rel[i] = fmt.Sprintf("R%d", i+1)
		l.tRel[i] = fmt.Sprintf("T%d", i+1)
		rs := s.Scheme(l.rel[i])
		if rs == nil {
			return nil, fmt.Errorf("star design has no %s", l.rel[i])
		}
		names := rs.AttrNames()
		l.keyPos[i] = indexOf(names, fmt.Sprintf("R%d.ID", i+1))
		l.refPos[i] = indexOf(names, fmt.Sprintf("R%d.T%d.ID", i+1, i+1))
		if len(names) != 2 || l.keyPos[i] < 0 || l.refPos[i] < 0 {
			return nil, fmt.Errorf("unexpected %s attributes %v", l.rel[i], names)
		}
	}
	return l, nil
}

// row builds object o's R_{a+1} row referring to T key ref.
func (l *starLayout) row(a int, o *object, ref relation.Value) relation.Tuple {
	t := make(relation.Tuple, 2)
	t[l.keyPos[a]] = o.key[0]
	t[l.refPos[a]] = ref
	return t
}

// state builds the database state of every present object of every client
// plus all T keys, in time linear in the rows.
func (l *starLayout) state(tk *tKeys, clients [][]object) *state.DB {
	st := state.New(l.schema)
	e0 := st.Relation("E0")
	for a := 0; a < arms; a++ {
		t := st.Relation(l.tRel[a])
		for _, v := range tk.vals[a] {
			t.Add(relation.Tuple{v})
		}
	}
	for _, objs := range clients {
		for i := range objs {
			o := &objs[i]
			if !o.present {
				continue
			}
			e0.Add(o.key)
			for a := 0; a < arms; a++ {
				if o.mask&(1<<a) != 0 {
					st.Relation(l.rel[a]).Add(l.row(a, o, tk.vals[a][o.tref[a]]))
				}
			}
		}
	}
	return st
}

// insertOps is the batch that inserts object o: its E0 row, then its R_i
// rows. A non-negative dangle replaces arm dangle's T reference with a key
// that does not exist.
func (l *starLayout) insertOps(tk *tKeys, o *object, dangle int) []relmerge.BatchOp {
	ops := make([]relmerge.BatchOp, 0, 1+arms)
	ops = append(ops, relmerge.Ins("E0", o.key))
	for a := 0; a < arms; a++ {
		if o.mask&(1<<a) == 0 {
			continue
		}
		ref := tk.vals[a][o.tref[a]]
		if a == dangle {
			ref = tk.dangling[a]
		}
		ops = append(ops, relmerge.Ins(l.rel[a], l.row(a, o, ref)))
	}
	return ops
}

// deleteOps is the batch that deletes object o: its R_i rows first, so the
// E0 delete is not restricted by them.
func (l *starLayout) deleteOps(o *object) []relmerge.BatchOp {
	ops := make([]relmerge.BatchOp, 0, 1+arms)
	for a := 0; a < arms; a++ {
		if o.mask&(1<<a) != 0 {
			ops = append(ops, relmerge.Del(l.rel[a], o.key))
		}
	}
	return append(ops, relmerge.Del("E0", o.key))
}

// chainLayout is the attribute layout of the merged ChainEER(8) relation:
// its name, the key position, and the position of each R_i's T_i reference.
type chainLayout struct {
	name   string
	arity  int
	keyPos int
	refPos [arms]int
}

func newChainLayout(s *schema.Schema, name string) (*chainLayout, error) {
	rs := s.Scheme(name)
	if rs == nil {
		return nil, fmt.Errorf("merged design has no %s", name)
	}
	names := rs.AttrNames()
	l := &chainLayout{name: name, arity: len(names), keyPos: indexOf(names, "E0.ID")}
	if l.keyPos < 0 {
		return nil, fmt.Errorf("unexpected %s attributes %v", name, names)
	}
	for i := 0; i < arms; i++ {
		l.refPos[i] = indexOf(names, fmt.Sprintf("R%d.T%d.ID", i+1, i+1))
		if l.refPos[i] < 0 {
			return nil, fmt.Errorf("unexpected %s attributes %v", name, names)
		}
	}
	return l, nil
}

// tuple builds object o's merged row with a chain of the given length.
func (l *chainLayout) tuple(tk *tKeys, o *object, depth int) relation.Tuple {
	t := make(relation.Tuple, l.arity)
	t[l.keyPos] = o.key[0]
	for a := 0; a < depth; a++ {
		t[l.refPos[a]] = tk.vals[a][o.tref[a]]
	}
	return t
}

// matches reports whether a fetched merged row is object o's modelled row.
func (l *chainLayout) matches(tk *tKeys, o *object, got relation.Tuple) bool {
	if len(got) != l.arity || !got[l.keyPos].Identical(o.key[0]) {
		return false
	}
	for a := 0; a < arms; a++ {
		v := got[l.refPos[a]]
		if a < int(o.depth) {
			if !v.Identical(tk.vals[a][o.tref[a]]) {
				return false
			}
		} else if !v.IsNull() {
			return false
		}
	}
	return true
}

// chainBaseState builds the unmerged ChainEER(8) state of every present
// object: E0, then R_1..R_depth, each R_i hanging off R_{i-1}.
func chainBaseState(base *schema.Schema, tk *tKeys, clients [][]object) (*state.DB, error) {
	st := state.New(base)
	var keyPos, refPos [arms]int
	var rels [arms]*relation.Relation
	for a := 0; a < arms; a++ {
		rels[a] = st.Relation(fmt.Sprintf("R%d", a+1))
		rs := base.Scheme(fmt.Sprintf("R%d", a+1))
		if rs == nil {
			return nil, fmt.Errorf("chain design has no R%d", a+1)
		}
		names := rs.AttrNames()
		keyPos[a] = indexOf(names, fmt.Sprintf("R%d.ID", a+1))
		refPos[a] = indexOf(names, fmt.Sprintf("R%d.T%d.ID", a+1, a+1))
		if len(names) != 2 || keyPos[a] < 0 || refPos[a] < 0 {
			return nil, fmt.Errorf("unexpected R%d attributes %v", a+1, names)
		}
		t := st.Relation(fmt.Sprintf("T%d", a+1))
		for _, v := range tk.vals[a] {
			t.Add(relation.Tuple{v})
		}
	}
	e0 := st.Relation("E0")
	for _, objs := range clients {
		for i := range objs {
			o := &objs[i]
			if !o.present {
				continue
			}
			e0.Add(o.key)
			for a := 0; a < int(o.depth); a++ {
				row := make(relation.Tuple, 2)
				row[keyPos[a]] = o.key[0]
				row[refPos[a]] = tk.vals[a][o.tref[a]]
				rels[a].Add(row)
			}
		}
	}
	return st, nil
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}
