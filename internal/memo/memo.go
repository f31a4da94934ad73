// Package memo is the measurement pipeline's content-addressed result
// cache. Since PR 3 a measured point is a pure function of (device
// identity, workload, configuration key, campaign seed): the simulators
// are deterministic and the meter's noise is seeded from the hashed
// (seed, config) identity, so re-measuring the same tuple always yields
// bit-identical floats. That makes memoization *exact* — not an
// approximation — and the cache's only observable effects are wall-clock
// time and allocation counts.
//
// The cache is bounded (LRU eviction), safe for concurrent use, and
// deduplicates in-flight computations: when N goroutines ask for the
// same key while the first is still computing, one computation runs and
// the other N-1 wait for its result (singleflight). Hit, miss, eviction,
// and dedup counters are exposed through Stats for observability — the
// /stats endpoint of internal/service and the CLIs' cache-stats output
// read them.
//
// Large caches are striped: the key space is split across up to 16
// independently locked shards so a streaming campaign committing points
// from many workers does not serialize on one mutex. Each key maps to
// exactly one shard, so the singleflight and bit-identity guarantees are
// unchanged; the LRU bound is enforced per shard (keys distribute
// uniformly under the digest keys Prefix produces), and Stats aggregates
// the shard counters. Small caches (under 256 entries per would-be
// shard) stay single-shard, preserving exact global LRU order.
//
// Keys are canonical digests built with Prefix: length-prefixed SHA-256
// over the identity fields. Callers must never concatenate fields by
// hand (a raw fmt.Sprintf key is an epvet seedflow finding): ambiguous
// encodings ("ab"+"c" vs "a"+"bc") would alias distinct measurements.
package memo

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"sync"
)

// Prefix builds canonical content-addressed cache keys from the
// identity fields of a computation: SHA-256 over the length-prefixed
// field bytes, hex-encoded. Length prefixes make the encoding
// injective — no two distinct field lists produce the same digest — so
// a digest-addressed cache can never alias two different measurements.
//
// A Prefix holds some of a key's fields encoded in advance: the leading
// fields as a saved SHA-256 state, the trailing ones (see WithTail) as
// their encoded bytes. A caller digesting many keys that differ in one
// middle field — a campaign's points, which share device, workload and
// spec — hashes the shared fields once instead of once per key. For all
// field lists a, b and c,
//
//	NewPrefix(a...).WithTail(c...).Digest(b...) == Prefix{}.Digest(a..., b..., c...)
//
// The zero Prefix fixes no field. A Prefix is immutable and safe for
// concurrent use.
type Prefix struct {
	state []byte // sha256 state after the leading fields; nil for none
	tail  []byte // encoded trailing fields
}

// NewPrefix fixes the leading fields of a digest.
func NewPrefix(parts ...string) Prefix {
	h := sha256.New()
	var scratch [64]byte
	writeFields(h, scratch[:], parts)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("memo: saving sha256 state: " + err.Error()) // crypto/sha256 always marshals
	}
	return Prefix{state: state}
}

// WithTail returns p with the given fields fixed after every field its
// Digest is passed, following any tail p already had.
func (p Prefix) WithTail(parts ...string) Prefix {
	var b bytes.Buffer
	b.Write(p.tail)
	var lenBuf [8]byte
	for _, f := range parts {
		b.Write(fieldLen(lenBuf[:], f))
		b.WriteString(f)
	}
	p.tail = b.Bytes()
	return p
}

// Digest returns the digest of p's leading fields, then parts, then
// p's trailing fields.
//
//lint:root hotalloc runs once per measured point on the serving path; a point's key must cost one allocation
func (p Prefix) Digest(parts ...string) string {
	hs := hashers.Get().(*hasher)
	h := hs.h
	if p.state == nil {
		h.Reset()
	} else if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.state); err != nil {
		panic("memo: restoring sha256 state: " + err.Error()) // state came from MarshalBinary
	}
	writeFields(h, hs.buf[:], parts)
	h.Write(p.tail)
	sum := h.Sum(hs.buf[:0])
	hex.Encode(hs.buf[sha256.Size:], sum)
	key := string(hs.buf[sha256.Size:])
	hashers.Put(hs)
	return key
}

// hasher is a SHA-256 hash with the scratch a digest is encoded
// through: field length prefixes and short fields, then the sum and its
// hex form. Pooled, so a digest allocates only its result string and
// the fields too long for the scratch.
type hasher struct {
	h   hash.Hash
	buf [3 * sha256.Size]byte
}

var hashers = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// writeFields hashes each field in the canonical encoding: its
// fieldLen prefix, then its bytes. scratch (length >= 8) carries the
// prefix, and the field with it when both fit, so a short field costs
// one Write and no conversion.
func writeFields(h hash.Hash, scratch []byte, parts []string) {
	for _, p := range parts {
		fieldLen(scratch, p)
		if n := copy(scratch[8:], p); n == len(p) {
			h.Write(scratch[:8+n])
			continue
		}
		h.Write(scratch[:8])
		h.Write([]byte(p))
	}
}

// fieldLen encodes a field's length prefix into buf[:8] and returns
// it: the byte length as a little-endian uint64. The prefix is what
// makes the digest encoding injective.
func fieldLen(buf []byte, p string) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(len(p)))
	return buf[:8]
}

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity: roomy enough for the paper's largest sweep
// (110 GPU configurations) times dozens of overlapping campaigns.
const DefaultCapacity = 4096

// Striping bounds: a cache gains one shard per entriesPerShard entries
// of capacity, up to maxShards. The threshold keeps small caches (every
// test fixture, the CLIs' per-run caches) single-shard with exact global
// LRU; the cap bounds the fixed footprint of a large cache.
const (
	maxShards       = 16
	entriesPerShard = 256
)

// Stats is a point-in-time snapshot of the cache's counters, aggregated
// across shards.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to run the computation.
	Misses uint64 `json:"misses"`
	// Dedups counts lookups that joined an in-flight computation
	// instead of starting their own (the singleflight collapses).
	Dedups uint64 `json:"dedups"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Inflight is the number of computations currently running.
	Inflight int `json:"inflight"`
	// Size and Capacity describe the store's occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// errAbandoned marks a flight whose computation panicked; joiners retry
// rather than adopting a result that never materialized.
var errAbandoned = errors.New("memo: in-flight computation abandoned")

// flight is one in-progress computation that concurrent callers of the
// same key wait on.
type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// entry is one stored value; the list element carries it so LRU moves
// are O(1).
type entry[V any] struct {
	key string
	val V
}

// shard is one independently locked stripe of the cache: a bounded LRU
// store plus the singleflight table for the keys that hash to it.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	store    map[string]*list.Element // key -> *entry[V] element
	order    *list.List               // front = most recently used
	inflight map[string]*flight[V]

	hits, misses, dedups, evictions uint64
}

// Cache is a bounded, concurrency-safe, content-addressed result cache
// with singleflight deduplication, striped across shards when large.
// The zero value is not usable; call New.
type Cache[V any] struct {
	capacity int
	shards   []*shard[V]
}

// New builds a cache bounded to capacity entries; a non-positive
// capacity selects DefaultCapacity. The capacity is distributed across
// the shards (earlier shards take the remainder), so the total bound is
// exact.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	n := capacity / entriesPerShard
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	c := &Cache[V]{capacity: capacity, shards: make([]*shard[V], n)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = &shard[V]{
			capacity: sc,
			store:    map[string]*list.Element{},
			order:    list.New(),
			inflight: map[string]*flight[V]{},
		}
	}
	return c
}

// shardFor maps a key to its stripe with inline FNV-1a — cheap,
// deterministic, and well distributed even over the structured hex keys
// Prefix.Digest yields.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Do returns the cached value for key, or computes it with fn. The
// second result reports whether the value came from the cache (or an
// in-flight computation) rather than this caller's own fn.
//
// Concurrent calls with the same key collapse to one fn execution: the
// first caller computes, the rest wait. Errors are never cached, and a
// waiter whose leader failed retries with its own computation — the
// leader's failure may be private to it (e.g. its request context was
// cancelled), and sharing it would make one client's cancellation
// observable to another, violating the cache-invisibility contract.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, bool, error) {
	return c.shardFor(key).do(key, fn)
}

func (s *shard[V]) do(key string, fn func() (V, error)) (V, bool, error) {
	for {
		s.mu.Lock()
		if el, ok := s.store[key]; ok {
			s.order.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			s.hits++
			s.mu.Unlock()
			return v, true, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.dedups++
			s.mu.Unlock()
			<-f.done
			if f.err == nil {
				return f.val, true, nil
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{}), err: errAbandoned}
		s.inflight[key] = f
		s.misses++
		s.mu.Unlock()
		return s.lead(key, f, fn)
	}
}

// lead runs the computation as the flight's owner and publishes the
// result. The deferred block runs even if fn panics: the flight is
// removed and closed with errAbandoned still set, so waiters retry
// instead of blocking forever.
func (s *shard[V]) lead(key string, f *flight[V], fn func() (V, error)) (V, bool, error) {
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		if f.err == nil {
			s.insertLocked(key, f.val)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, false, f.err
}

// insertLocked stores the value and enforces the shard's LRU bound.
// Caller holds s.mu.
func (s *shard[V]) insertLocked(key string, v V) {
	if el, ok := s.store[key]; ok {
		el.Value.(*entry[V]).val = v
		s.order.MoveToFront(el)
		return
	}
	s.store[key] = s.order.PushFront(&entry[V]{key: key, val: v})
	for s.order.Len() > s.capacity {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.store, oldest.Value.(*entry[V]).key)
		s.evictions++
	}
}

// Stats returns a snapshot of the cache counters, summed across shards.
// Each shard is snapshotted under its own lock; the aggregate is
// consistent per shard, not across shards — fine for the monotone
// counters it reports.
func (c *Cache[V]) Stats() Stats {
	out := Stats{Capacity: c.capacity}
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Dedups += s.dedups
		out.Evictions += s.evictions
		out.Inflight += len(s.inflight)
		out.Size += s.order.Len()
		s.mu.Unlock()
	}
	return out
}
