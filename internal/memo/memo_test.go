package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDigestInjectiveOverFieldBoundaries(t *testing.T) {
	// The classic concatenation aliasing: without length prefixes these
	// two field lists would hash the same bytes.
	if Digest("ab", "c") == Digest("a", "bc") {
		t.Fatal(`Digest("ab","c") == Digest("a","bc"): field boundaries are not encoded`)
	}
	if Digest("a", "") == Digest("a") {
		t.Fatal("trailing empty field is not distinguished")
	}
	if Digest("x") != Digest("x") {
		t.Fatal("Digest is not deterministic")
	}
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New[int](8)
	calls := 0
	get := func() (int, bool) {
		v, hit, err := c.Do(Digest("k"), func() (int, error) { calls++; return 42, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if v, hit := get(); v != 42 || hit {
		t.Fatalf("first Do = (%d, hit=%v), want (42, miss)", v, hit)
	}
	if v, hit := get(); v != 42 || !hit {
		t.Fatalf("second Do = (%d, hit=%v), want (42, hit)", v, hit)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, size 1", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	calls := 0
	key := Digest("k")
	if _, _, err := c.Do(key, func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v, _, err := c.Do(key, func() (int, error) { calls++; return 7, nil }); err != nil || v != 7 {
		t.Fatalf("after error: (%d, %v), want (7, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (errors must not be cached)", calls)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestLRUEvictsAtBound(t *testing.T) {
	c := New[int](2)
	put := func(k string, v int) {
		t.Helper()
		if _, _, err := c.Do(Digest(k), func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	// Touch "a" so "b" is the LRU entry when "c" evicts.
	if _, ok := c.Get(Digest("a")); !ok {
		t.Fatal("a should be cached")
	}
	put("c", 3)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if _, ok := c.Get(Digest("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get(Digest("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New[int](0).Stats().Capacity; got != DefaultCapacity {
		t.Fatalf("capacity = %d, want DefaultCapacity %d", got, DefaultCapacity)
	}
	if got := New[int](3).Stats().Capacity; got != 3 {
		t.Fatalf("capacity = %d, want 3", got)
	}
}

// TestSingleflightCollapsesConcurrentCalls forces N goroutines into the
// same in-flight window: the leader's fn blocks until every other
// caller has joined the flight, so exactly one execution must serve all
// of them.
func TestSingleflightCollapsesConcurrentCalls(t *testing.T) {
	const joiners = 8
	c := New[int](8)
	key := Digest("shared")

	var calls atomic.Int64
	release := make(chan struct{})
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do(key, func() (int, error) {
			calls.Add(1)
			close(leaderIn)
			<-release
			return 99, nil
		})
		if err != nil || v != 99 {
			t.Errorf("leader: (%d, %v), want (99, nil)", v, err)
		}
	}()
	<-leaderIn

	results := make(chan int, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(key, func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil || !hit {
				t.Errorf("joiner: (%d, hit=%v, %v), want (99, hit, nil)", v, hit, err)
			}
			results <- v
		}()
	}
	// Wait until every joiner is parked on the flight, then release the
	// leader. Dedups is incremented under the cache lock before the
	// joiner blocks, so polling it is race-free.
	for c.Stats().Dedups != joiners {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 99 {
			t.Fatalf("joiner got %d, want the leader's 99", v)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, joiners+1)
	}
	if s := c.Stats(); s.Misses != 1 || s.Dedups != joiners {
		t.Fatalf("stats = %+v, want misses=1 dedups=%d", s, joiners)
	}
}

// TestJoinerRetriesAfterLeaderError: a leader failure (e.g. its request
// context was cancelled) must stay private — the waiter retries with
// its own computation instead of inheriting the error.
func TestJoinerRetriesAfterLeaderError(t *testing.T) {
	c := New[int](8)
	key := Digest("retry")
	boom := errors.New("leader cancelled")

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(key, func() (int, error) {
			close(leaderIn)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v, want boom", err)
		}
	}()
	<-leaderIn

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do(key, func() (int, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Errorf("joiner = (%d, %v), want (7, nil) via retry", v, err)
		}
	}()
	for c.Stats().Dedups == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
}

// TestPanicDoesNotWedgeTheKey: a panicking computation must not leave
// the flight stuck, or every later Do on the key would block forever.
func TestPanicDoesNotWedgeTheKey(t *testing.T) {
	c := New[int](8)
	key := Digest("panic")
	func() {
		defer func() { _ = recover() }()
		_, _, _ = c.Do(key, func() (int, error) { panic("kernel bug") })
	}()
	v, _, err := c.Do(key, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("after panic: (%d, %v), want (5, nil)", v, err)
	}
	if s := c.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after panic, want 0", s.Inflight)
	}
}

// TestConcurrentMixedAccessRaceClean hammers Do/Get/Stats/Len from many
// goroutines over a small key space with a small capacity, so the -race
// run exercises hits, misses, dedups, and evictions together.
func TestConcurrentMixedAccessRaceClean(t *testing.T) {
	c := New[string](4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Digest("key", fmt.Sprint((g+i)%9))
				want := fmt.Sprintf("v%d", (g+i)%9)
				v, _, err := c.Do(k, func() (string, error) { return want, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("Do = %q, want %q (cache aliased two keys)", v, want)
					return
				}
				c.Get(k)
				_ = c.Stats()
				_ = c.Len()
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Size > 4 {
		t.Fatalf("size = %d exceeds capacity 4", s.Size)
	}
}

// TestStripingKeepsSmallCachesSingleShard: every capacity below the
// striping threshold must stay on one shard, because tests and CLI runs
// rely on exact global LRU order at small sizes.
func TestStripingKeepsSmallCachesSingleShard(t *testing.T) {
	for _, capacity := range []int{1, 2, 8, entriesPerShard - 1, entriesPerShard} {
		c := New[int](capacity)
		if got := len(c.shards); got != 1 {
			t.Errorf("New(%d): %d shards, want 1", capacity, got)
		}
	}
	if got := len(New[int](0).shards); got != DefaultCapacity/entriesPerShard {
		t.Errorf("New(0): %d shards, want %d", got, DefaultCapacity/entriesPerShard)
	}
	if got := len(New[int](100 * entriesPerShard * maxShards).shards); got != maxShards {
		t.Errorf("huge cache: %d shards, want the %d-shard cap", got, maxShards)
	}
}

// TestStripedCapacityIsExact: the per-shard capacities must sum to the
// configured bound even when it does not divide evenly.
func TestStripedCapacityIsExact(t *testing.T) {
	capacity := 3*entriesPerShard + 7 // 3 shards, remainder 7
	c := New[int](capacity)
	if len(c.shards) != 3 {
		t.Fatalf("%d shards, want 3", len(c.shards))
	}
	sum := 0
	for _, s := range c.shards {
		sum += s.capacity
	}
	if sum != capacity {
		t.Fatalf("shard capacities sum to %d, want %d", sum, capacity)
	}
	if got := c.Stats().Capacity; got != capacity {
		t.Fatalf("Stats().Capacity = %d, want %d", got, capacity)
	}
}

// TestStripedCacheAggregatesStats fills a multi-shard cache past its
// bound and checks that Len, Size, and the counters aggregate across
// shards: every key stored exactly once, totals consistent with the
// access sequence, occupancy never above the bound.
func TestStripedCacheAggregatesStats(t *testing.T) {
	capacity := 2 * entriesPerShard
	c := New[int](capacity)
	if len(c.shards) != 2 {
		t.Fatalf("%d shards, want 2", len(c.shards))
	}
	n := capacity + 100 // overflow to force evictions somewhere
	for i := 0; i < n; i++ {
		k := Digest("striped", fmt.Sprint(i))
		v, cached, err := c.Do(k, func() (int, error) { return i, nil })
		if err != nil || cached || v != i {
			t.Fatalf("Do(%d) = (%d, %v, %v), want (%d, false, nil)", i, v, cached, err, i)
		}
	}
	s := c.Stats()
	if s.Misses != uint64(n) || s.Hits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/%d", s.Hits, s.Misses, n)
	}
	if s.Size != c.Len() {
		t.Fatalf("Stats().Size = %d but Len() = %d", s.Size, c.Len())
	}
	if s.Size > capacity {
		t.Fatalf("size %d exceeds capacity %d", s.Size, capacity)
	}
	if int(s.Evictions) != n-s.Size {
		t.Fatalf("evictions = %d, want inserts-size = %d", s.Evictions, n-s.Size)
	}
}

// TestStripedConcurrentAccessRaceClean is the multi-shard twin of
// TestConcurrentMixedAccessRaceClean: many goroutines over a key space
// wide enough to land on every shard, with enough pressure to evict.
// Run under -race this checks the per-shard locks compose cleanly.
func TestStripedConcurrentAccessRaceClean(t *testing.T) {
	capacity := 2 * entriesPerShard
	c := New[int](capacity)
	keys := make([]string, 3*capacity)
	for i := range keys {
		keys[i] = Digest("wide", fmt.Sprint(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := (g*31 + i) % len(keys)
				v, _, err := c.Do(keys[id], func() (int, error) { return id, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != id {
					t.Errorf("Do(key %d) = %d: shards aliased distinct keys", id, v)
					return
				}
				_ = c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > capacity {
		t.Fatalf("len %d exceeds capacity %d", got, capacity)
	}
}

// TestShardForIsDeterministicAndCoversShards: the same key always maps
// to the same shard (singleflight correctness depends on it), and the
// digest keys spread over all shards rather than clumping.
func TestShardForIsDeterministicAndCoversShards(t *testing.T) {
	c := New[int](maxShards * entriesPerShard)
	seen := map[*shard[int]]bool{}
	for i := 0; i < 4096; i++ {
		k := Digest("spread", fmt.Sprint(i))
		s := c.shardFor(k)
		if again := c.shardFor(k); again != s {
			t.Fatalf("shardFor(%q) not deterministic", k)
		}
		seen[s] = true
	}
	if len(seen) != maxShards {
		t.Fatalf("4096 digest keys covered %d of %d shards", len(seen), maxShards)
	}
}

// refDigest is the canonical field encoding written out longhand:
// SHA-256 over each field's little-endian uint64 length and bytes.
func refDigest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPrefixDigestMatchesDigest: for random field lists, every split
// into leading fields, digested fields and a tail (itself split into
// two WithTail calls) yields the one-shot Digest, which is the
// longhand encoding.
func TestPrefixDigestMatchesDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := func() string {
		// Up to 200 bytes: past a 64-byte hash block and past the
		// digest scratch that carries short fields.
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		return string(b)
	}
	for trial := 0; trial < 60; trial++ {
		parts := make([]string, rng.Intn(8))
		for i := range parts {
			parts[i] = field()
		}
		want := refDigest(parts...)
		if got := Digest(parts...); got != want {
			t.Fatalf("Digest(%q) = %s, want %s", parts, got, want)
		}
		for i := 0; i <= len(parts); i++ {
			for j := i; j <= len(parts); j++ {
				for k := j; k <= len(parts); k++ {
					p := NewPrefix(parts[:i]...).WithTail(parts[j:k]...).WithTail(parts[k:]...)
					if got := p.Digest(parts[i:j]...); got != want {
						t.Fatalf("split %d/%d/%d of %q: %s, want %s", i, j, k, parts, got, want)
					}
				}
			}
			if got := (Prefix{}).WithTail(parts[i:]...).Digest(parts[:i]...); got != want {
				t.Fatalf("tail-only split %d of %q: %s, want %s", i, parts, got, want)
			}
		}
	}
}

// TestPrefixDigestAllocs bounds a point key's cost: restoring the saved
// state and hashing one short field allocates only the result string,
// whatever the prefix and tail hold.
func TestPrefixDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled hashers")
	}
	p := NewPrefix("campaign-point/v1", "p100", "gpu", "Tesla P100").WithTail("7", "0x1.47ae147ae147bp-07")
	if n := testing.AllocsPerRun(100, func() { _ = p.Digest("bs=16/g=1/r=2") }); n > 1 {
		t.Errorf("Prefix.Digest allocates %.0f times, want 1", n)
	}
}

// TestPrefixDigestConcurrent: one Prefix digested from many goroutines
// at once (as a campaign's workers do through the pooled hashers)
// gives every caller its own, correct key.
func TestPrefixDigestConcurrent(t *testing.T) {
	p := NewPrefix("campaign-point/v1", "p100").WithTail("7")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("bs=%d/g=%d", g, i)
				if got, want := p.Digest(key), refDigest("campaign-point/v1", "p100", key, "7"); got != want {
					t.Errorf("goroutine %d key %q: %s, want %s", g, key, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Get returns the stored value for key without computing anything. It
// counts as a hit or miss but never joins an in-flight computation.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.store[key]; ok {
		s.order.MoveToFront(el)
		s.hits++
		return el.Value.(*entry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Digest is the canonical key of the whole field list: the reference
// form every Prefix split must reproduce.
func Digest(parts ...string) string {
	return Prefix{}.Digest(parts...)
}

// Len returns the number of stored entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
