package qcache_test

import (
	"context"
	"testing"

	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/telemetry"
)

// testCounters returns standalone handles for a cache under test.
func testCounters() qcache.Counters {
	return qcache.Counters{
		Hits:      telemetry.NewCounter(),
		Misses:    telemetry.NewCounter(),
		Evictions: telemetry.NewCounter(),
		Coalesced: telemetry.NewCounter(),
	}
}

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
	a := qcache.NewShared(0, 0, budget, testCounters())
	b := qcache.NewShared(0, 0, budget, testCounters())

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

	// Once a is closed and frees its share, b can cache again.
	a.Close()
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after close = %d, want 0", got)
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
	c := qcache.NewShared(0, 0, budget, testCounters())
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

// TestCloseReleasesBudget proves Close empties the cache, returns the
// bytes to the shared pool, and leaves the cache storing nothing.
func TestCloseReleasesBudget(t *testing.T) {
	budget := qcache.NewBudget(1 << 20)
	c := qcache.NewShared(0, 0, budget, testCounters())
	fill(t, c, []int{0, 1})
	fill(t, c, []int{2, 3})
	if budget.Used() == 0 {
		t.Fatal("budget unused after two stores")
	}
	c.Close()
	if got := c.Len(); got != 0 {
		t.Fatalf("len after close = %d, want 0", got)
	}
	if got := budget.Used(); got != 0 {
		t.Fatalf("budget used after close = %d, want 0", got)
	}
	fill(t, c, []int{0, 1})
	if got := c.Len(); got != 0 {
		t.Fatalf("closed cache stored an answer: len = %d, want 0", got)
	}
}

// TestClosedCacheAnswersButStoresNothing proves a closed cache keeps
// answering — a solve in flight across Close and a query after it both
// get their tables — while storing nothing and reserving no budget
// bytes, so a retired cache cannot leak from the shared pool.
func TestClosedCacheAnswersButStoresNothing(t *testing.T) {
	budget := qcache.NewBudget(1 << 20)
	c := qcache.NewShared(0, 0, budget, testCounters())
	ctx := context.Background()
	inflight := mustKey(t, []int{0, 1}, 0)
	started, release := make(chan struct{}), make(chan struct{})
	type answer struct {
		table *marginal.Table
		err   error
	}
	done := make(chan answer, 1)
	go func() {
		tab, err := do(c, ctx, inflight, func(context.Context) (*marginal.Table, error) {
			close(started)
			<-release
			return table([]int{0, 1}, 1), nil
		})
		done <- answer{tab, err}
	}()
	<-started
	c.Close()
	close(release)
	if a := <-done; a.err != nil || a.table == nil {
		t.Fatalf("solve in flight across Close = (%v, %v), want its table", a.table, a.err)
	}
	got, err := do(c, ctx, mustKey(t, []int{2, 3}, 0), constant(table([]int{2, 3}, 1)))
	if err != nil || got == nil {
		t.Fatalf("query on a closed cache = (%v, %v), want its table", got, err)
	}
	if !c.Closed() {
		t.Error("Closed() = false after Close")
	}
	if n := c.Len(); n != 0 {
		t.Errorf("closed cache holds %d entries, want 0", n)
	}
	if _, hit := c.Peek(inflight); hit {
		t.Error("closed cache stored the solve that finished after Close")
	}
	if used := budget.Used(); used != 0 {
		t.Errorf("closed cache reserved %d budget bytes, want 0", used)
	}
}

// TestNilBudgetIsUnlimited proves the nil-Budget path (every existing
// caller) is untouched by the shared accounting.
func TestNilBudgetIsUnlimited(t *testing.T) {
	c := qcache.NewShared(0, 0, nil, testCounters())
	for i := 0; i < 8; i++ {
		fill(t, c, []int{i, i + 8})
	}
	if got := c.Len(); got != 8 {
		t.Fatalf("len = %d, want 8", got)
	}
}
