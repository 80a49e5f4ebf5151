package qcache_test

import (
	"context"
	"testing"

	"priview/internal/qcache"
)

// fill stores a clean answer for attrs into c and returns its key.
func fill(t *testing.T, c *qcache.Cache, attrs []int) qcache.Key {
	t.Helper()
	k := mustKey(t, attrs, 0)
	if _, err := do(c, context.Background(), k, constant(table(attrs, 1))); err != nil {
		t.Fatalf("do(%v): %v", attrs, err)
	}
	return k
}

// TestBudgetSharedAcrossCaches proves the multi-tenant invariant: two
// caches drawing from one budget never hold more bytes in total than
// the budget's cap, and pressure from one cache evicts only that
// cache's own entries.
func TestBudgetSharedAcrossCaches(t *testing.T) {
	// Each 2-attr table costs 8*4 + 8*2 + 64 = 112 bytes; a budget of
	// 300 holds two tables but not three.
	budget := qcache.NewBudget(300)
	a := qcache.NewShared(0, 0, budget)
	b := qcache.NewShared(0, 0, budget)

	fill(t, a, []int{0, 1})
	fill(t, a, []int{2, 3})
	if got := budget.Used(); got != 224 {
		t.Fatalf("budget used = %d, want 224", got)
	}
	// b's store cannot reserve; it may only evict its own (empty) tail,
	// so the answer is served uncached and a's entries survive.
	fill(t, b, []int{4, 5})
	if got := b.Len(); got != 0 {
		t.Errorf("cache b stored %d entries with the pool exhausted, want 0 (uncached)", got)
	}
	if got := a.Len(); got != 2 {
		t.Errorf("cache a lost entries to b's pressure: len = %d, want 2", got)
	}

	// Once a frees its share, b can cache again.
	a.Purge()
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after purge = %d, want 0", got)
	}
	fill(t, b, []int{4, 5})
	if got := b.Len(); got != 1 {
		t.Errorf("cache b len after pool freed = %d, want 1", got)
	}
}

// TestBudgetPressureEvictsOwnTail proves a cache under shared-pool
// pressure sheds its own LRU tail to make room for a new entry.
func TestBudgetPressureEvictsOwnTail(t *testing.T) {
	budget := qcache.NewBudget(300) // two 112-byte tables fit, three do not
	c := qcache.NewShared(0, 0, budget)
	k1 := fill(t, c, []int{0, 1})
	fill(t, c, []int{2, 3})
	fill(t, c, []int{4, 5}) // must evict k1, the tail
	if got := c.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	keys := c.Keys()
	for _, k := range keys {
		if k == k1 {
			t.Errorf("tail entry %v survived budget-pressure eviction", k1)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestKeysMRUOrder proves Keys returns most-recently-used first — the
// order the warm handoff replays them in, hottest first.
func TestKeysMRUOrder(t *testing.T) {
	c := qcache.New(0, 0)
	k1 := fill(t, c, []int{0})
	k2 := fill(t, c, []int{1})
	k3 := fill(t, c, []int{2})
	// Touch k1 so it becomes most recent.
	if _, err := do(c, context.Background(), k1, constant(table([]int{0}, 1))); err != nil {
		t.Fatal(err)
	}
	got := c.Keys()
	want := []qcache.Key{k1, k3, k2}
	if len(got) != len(want) {
		t.Fatalf("Keys len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

// TestPurgeReleasesbudget proves Purge empties the cache, returns the
// bytes to the shared pool, and leaves the cache usable.
func TestPurgeReleasesBudget(t *testing.T) {
	budget := qcache.NewBudget(1 << 20)
	c := qcache.NewShared(0, 0, budget)
	fill(t, c, []int{0, 1})
	fill(t, c, []int{2, 3})
	if budget.Used() == 0 {
		t.Fatal("budget unused after two stores")
	}
	if n := c.Purge(); n != 2 {
		t.Fatalf("Purge dropped %d entries, want 2", n)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("len after purge = %d, want 0", got)
	}
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after purge = %d, want 0", got)
	}
	fill(t, c, []int{0, 1})
	if got := c.Len(); got != 1 {
		t.Fatalf("cache unusable after purge: len = %d, want 1", got)
	}
}

// TestNilBudgetIsUnlimited proves the nil-Budget path (every existing
// caller) is untouched by the shared accounting.
func TestNilBudgetIsUnlimited(t *testing.T) {
	c := qcache.NewShared(0, 0, nil)
	for i := 0; i < 8; i++ {
		fill(t, c, []int{i, i + 8})
	}
	if got := c.Len(); got != 8 {
		t.Fatalf("len = %d, want 8", got)
	}
}
