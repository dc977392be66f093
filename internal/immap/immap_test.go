package immap

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
)

func TestBasic(t *testing.T) {
	m := New[int]()
	if m.Len() != 0 {
		t.Fatal("empty Len")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty Get")
	}
	m1 := m.Set("a", 1)
	m2 := m1.Set("b", 2)
	m3 := m2.Set("a", 10)
	if v, ok := m1.Get("a"); !ok || v != 1 {
		t.Errorf("m1[a] = %d,%v", v, ok)
	}
	if _, ok := m1.Get("b"); ok {
		t.Error("m1 must not see b")
	}
	if v, _ := m2.Get("a"); v != 1 {
		t.Error("m2[a] changed by m3's replace")
	}
	if v, _ := m3.Get("a"); v != 10 {
		t.Error("m3[a] replace")
	}
	if m1.Len() != 1 || m2.Len() != 2 || m3.Len() != 2 {
		t.Errorf("lens = %d %d %d", m1.Len(), m2.Len(), m3.Len())
	}
	m4 := m3.Delete("a")
	if _, ok := m4.Get("a"); ok || m4.Len() != 1 {
		t.Error("delete")
	}
	if v, ok := m3.Get("a"); !ok || v != 10 {
		t.Error("delete mutated the older version")
	}
	if m4.Delete("nope") != m4 {
		t.Error("deleting an absent key should return the receiver")
	}
}

// TestDifferential drives a long random op sequence against a built-in map
// oracle, checking every version along the way stays immutable.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[int]()
	oracle := map[string]int{}
	type pin struct {
		m      *Map[int]
		oracle map[string]int
	}
	var pins []pin
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2:
			m = m.Delete(key)
			delete(oracle, key)
		default:
			m = m.Set(key, i)
			oracle[key] = i
		}
		if i%2500 == 0 {
			snap := make(map[string]int, len(oracle))
			for k, v := range oracle {
				snap[k] = v
			}
			pins = append(pins, pin{m: m, oracle: snap})
		}
	}
	check := func(m *Map[int], oracle map[string]int) {
		t.Helper()
		if m.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
		}
		for k, v := range oracle {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("Get(%s) = %d,%v want %d", k, got, ok, v)
			}
		}
		seen := 0
		m.Range(func(k string, v int) bool {
			if oracle[k] != v {
				t.Fatalf("Range yielded %s=%d, oracle %d", k, v, oracle[k])
			}
			seen++
			return true
		})
		if seen != len(oracle) {
			t.Fatalf("Range visited %d of %d", seen, len(oracle))
		}
	}
	check(m, oracle)
	// Every pinned version must still read exactly as it did when pinned.
	for _, p := range pins {
		check(p.m, p.oracle)
	}
}

// TestCollisions forces full-hash collisions so the bucket path is covered.
func TestCollisions(t *testing.T) {
	orig := hashString
	hashString = func(string) uint64 { return 0xDEADBEEF } // everyone collides
	defer func() { hashString = orig }()

	m := New[string]()
	const n = 40
	for i := 0; i < n; i++ {
		m = m.Set(fmt.Sprintf("c%d", i), fmt.Sprintf("v%d", i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("c%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("collision Get c%d = %q,%v", i, v, ok)
		}
	}
	if _, ok := m.Get("absent"); ok {
		t.Fatal("absent key found in collision bucket")
	}
	m = m.Set("c7", "replaced")
	if v, _ := m.Get("c7"); v != "replaced" || m.Len() != n {
		t.Fatal("collision replace")
	}
	for i := 0; i < n; i++ {
		m = m.Delete(fmt.Sprintf("c%d", i))
	}
	if m.Len() != 0 {
		t.Fatalf("Len after collision deletes = %d", m.Len())
	}
	if m.Delete("absent") != m {
		t.Fatal("absent collision delete should return the receiver")
	}
}

// TestRangeEarlyStop checks Range stops when fn returns false.
func TestRangeEarlyStop(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m = m.Set(fmt.Sprintf("k%d", i), i)
	}
	visited := 0
	m.Range(func(string, int) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Fatalf("visited %d, want 10", visited)
	}
}

// TestConcurrentReaders publishes versions from one writer while readers
// hammer pinned versions — the engine's exact usage pattern. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	var (
		cur  = New[int]()
		mu   sync.Mutex // writer-side only; readers pin without it
		pins [8]*Map[int]
	)
	for i := range pins {
		pins[i] = cur
	}
	var published sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			mu.Lock()
			cur = cur.Set(fmt.Sprintf("k%d", i%500), i)
			pins[i%len(pins)] = cur
			published.Store(i%len(pins), cur)
			mu.Unlock()
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := published.Load(r % len(pins)); ok {
					m := v.(*Map[int])
					n := 0
					m.Range(func(string, int) bool { n++; return true })
					if n != m.Len() {
						t.Errorf("Range %d != Len %d on a pinned version", n, m.Len())
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestBuilderDifferential drives seeded builders against a Go-map model:
// Set and Delete interleave with Map freezes and with fresh builders forked
// from earlier frozen maps, and every frozen map must still equal the model
// recorded when it was frozen — no later in-place edit may reach it. The
// narrow-hash run squeezes keys into few full-hash values, so collision
// buckets and deep push-downs are edited in place too.
func TestBuilderDifferential(t *testing.T) {
	fnv := hashString
	for _, tc := range []struct {
		name string
		hash func(string) uint64
	}{
		{"fnv", fnv},
		{"narrow-hash", func(s string) uint64 { return fnv(s) & 0x3f0f }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hashString = tc.hash
			defer func() { hashString = fnv }()
			type frozen struct {
				m     *Map[int]
				model map[string]int
			}
			rng := rand.New(rand.NewSource(7))
			b := New[int]().Edit()
			model := map[string]int{}
			var pins []frozen
			for i := 0; i < 30000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(2000))
				switch r := rng.Intn(100); {
				case r < 30:
					_, had := model[key]
					if b.Delete(key) != had {
						t.Fatalf("op %d: Delete(%s) presence disagrees with the model", i, key)
					}
					delete(model, key)
				case r < 98:
					b.Set(key, i)
					model[key] = i
				case r < 99:
					pins = append(pins, frozen{m: b.Map(), model: maps.Clone(model)})
				default:
					// Fork: continue from a random earlier frozen map.
					if len(pins) == 0 {
						continue
					}
					p := pins[rng.Intn(len(pins))]
					b = p.m.Edit()
					model = maps.Clone(p.model)
				}
				if b.Len() != len(model) {
					t.Fatalf("op %d: builder Len = %d, model %d", i, b.Len(), len(model))
				}
				want, had := model[key]
				if got, ok := b.Get(key); ok != had || got != want {
					t.Fatalf("op %d: builder Get(%s) = %d,%v, model %d,%v", i, key, got, ok, want, had)
				}
			}
			pins = append(pins, frozen{m: b.Map(), model: model})
			for i, p := range pins {
				if p.m.Len() != len(p.model) {
					t.Fatalf("frozen map %d: Len = %d, model %d", i, p.m.Len(), len(p.model))
				}
				for k, v := range p.model {
					if got, ok := p.m.Get(k); !ok || got != v {
						t.Fatalf("frozen map %d: Get(%s) = %d,%v want %d", i, k, got, ok, v)
					}
				}
				seen := 0
				p.m.Range(func(k string, v int) bool {
					if want, ok := p.model[k]; !ok || want != v {
						t.Fatalf("frozen map %d: Range yielded %s=%d, model %d,%v", i, k, v, want, ok)
					}
					seen++
					return true
				})
				if seen != len(p.model) {
					t.Fatalf("frozen map %d: Range visited %d of %d", i, seen, len(p.model))
				}
			}
		})
	}
}

// TestConcurrentReadersDuringEdit has readers Get and Range frozen maps while
// the builder that froze them keeps editing — in place on its own nodes,
// copying the shared ones. Under -race, any write reaching a frozen node is
// a reported race; without it, readers check every frozen map's contents.
func TestConcurrentReadersDuringEdit(t *testing.T) {
	const keys = 400
	b := New[int]().Edit()
	for i := 0; i < keys; i++ {
		b.Set(fmt.Sprintf("k%d", i), 0)
	}
	var published sync.Map // round -> *Map[int] where every value == round
	published.Store(0, b.Map())
	const rounds = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				round := rng.Intn(rounds)
				v, ok := published.Load(round)
				if !ok {
					continue
				}
				m := v.(*Map[int])
				if got, ok := m.Get(fmt.Sprintf("k%d", rng.Intn(keys))); !ok || got != round {
					t.Errorf("frozen round %d: Get = %d,%v", round, got, ok)
					return
				}
				n := 0
				m.Range(func(_ string, val int) bool {
					if val != round {
						t.Errorf("frozen round %d: Range saw value %d", round, val)
					}
					n++
					return true
				})
				if n != keys {
					t.Errorf("frozen round %d: Range visited %d of %d", round, n, keys)
					return
				}
			}
		}(int64(r))
	}
	for round := 1; round < rounds; round++ {
		// Churn some keys out and back so deletes run in place too.
		for i := 0; i < keys; i += 7 {
			b.Delete(fmt.Sprintf("k%d", i))
		}
		for i := 0; i < keys; i++ {
			b.Set(fmt.Sprintf("k%d", i), round)
		}
		published.Store(round, b.Map())
	}
	close(done)
	wg.Wait()
}

// BenchmarkEditSet is BenchmarkSet's bulk-load counterpart: fresh keys go
// into one builder, frozen and restarted from empty every len(keys) sets,
// so the figures are per key of a bulk load, freeze included.
func BenchmarkEditSet(b *testing.B) {
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	bld := New[int]().Edit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Set(keys[i%len(keys)], i)
		if i%len(keys) == len(keys)-1 {
			bld.Map()
			bld = New[int]().Edit()
		}
	}
}

func BenchmarkSet(b *testing.B) {
	m := New[int]()
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m = m.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = m.Set(keys[i%len(keys)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[int]()
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m = m.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%len(keys)])
	}
}
