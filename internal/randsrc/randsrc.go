// Package randsrc is the seeded generator behind the meter's sampling
// noise and the fault and fleet-chaos schedules: math/rand's additive
// lagged-Fibonacci source (607 words, tap 273), bit for bit, with a
// reseed that needs no division.
//
// math/rand seeds its source by running the Park–Miller generator
// x ← 48271·x mod (2³¹−1) through 1,841 steps in one dependent chain,
// each step a Schrage division, and XORs every three consecutive words
// into one register slot together with a fixed table of "cooked" words.
// Step k is simply 48271^k · x₀ mod (2³¹−1), so Seed here multiplies the
// starting value by a table of powers built once at init and reduces
// each product with a Mersenne fold: the 1,841 steps are independent of
// each other and none divides.
//
// The cooked table is not copied from the Go sources. It is recovered
// at init from math/rand itself: seed a stdlib source with 1, read its
// first 607 outputs, solve the seeded register back out of them and XOR
// away the known Park–Miller words for seed 1.
package randsrc

import (
	"math/rand"
	"sync"
)

const (
	regLen  = 607       // register length
	regTap  = 273       // feedback tap
	m31     = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	lcgMul  = 48271     // Park–Miller multiplier
	warmup  = 20        // steps math/rand discards before filling slot 0
	int63   = 1<<63 - 1 // Int63 mask
	zeroSub = 89482311  // math/rand's stand-in for a seed ≡ 0
)

var (
	// lcgPow[i][j] is 48271^(warmup+3i+j+1) mod (2³¹−1): the power that
	// takes the reduced seed to the j-th of the three Park–Miller words
	// folded into register slot i.
	lcgPow [regLen][3]uint64
	// cooked[i] is the word math/rand XORs into register slot i.
	cooked [regLen]uint64
)

func init() {
	p := uint64(1)
	for i := 0; i < warmup; i++ {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			p = mulMod(p, lcgMul)
			lcgPow[i][j] = p
		}
	}
	recoverCooked()
}

// recoverCooked fills cooked from math/rand's own seed-1 sequence.
//
// After Seed the register's tap index is 0 and its feed index is
// regLen−regTap. Output k (1-based) adds the tap slot (607−k) mod 607 into
// the feed slot (334−k) mod 607 and returns the sum, so the first 607
// outputs write every slot once. For k > 273 the tap slot was already
// written by output k−273, which gives the seeded feed slot as
// out[k] − out[k−273]; that recovers slots 0…60 and 334…606. For k ≤ 273
// the tap slot still holds its seeded value, one of those just
// recovered, which gives the remaining slots 61…333.
func recoverCooked() {
	//lint:ignore seedflow the fixed seed 1 reads back math/rand's seeding table once at init; no measurement draws from this source
	ref := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]uint64 // out[k] is output k, 1-based
	for k := 1; k <= regLen; k++ {
		out[k] = ref.Uint64()
	}
	var seeded [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		seeded[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		seeded[regLen-regTap-k] = out[k] - seeded[regLen-k]
	}
	var s Source
	s.fill(1, new([regLen]uint64))
	for i := range cooked {
		cooked[i] = seeded[i] ^ uint64(s.vec[i])
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 by folding the
// product's high bits onto its low bits (2³¹ ≡ 1), with no division.
// Two folds leave a value in [0, 2³¹−1] congruent to a·b. It can only be
// 2³¹−1 itself if a·b ≡ 0, and since the modulus is prime that needs a
// or b to be 0, when the product and so the result are 0. So the folded
// value is already reduced.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&m31 + x>>31
	return x&m31 + x>>31
}

// Source is math/rand's lagged-Fibonacci source: a rand.Source64 whose
// outputs equal rand.NewSource's for every seed. The zero value is
// unseeded; call Seed (or go through rand.Rand.Seed) before drawing.
type Source struct {
	tap  int
	feed int
	vec  [regLen]int64
}

// Seed implements rand.Source, initialising the register exactly as
// math/rand's source does.
func (s *Source) Seed(seed int64) { s.fill(seed, &cooked) }

// fill resets the indices and writes into each register slot the three
// Park–Miller words for seed, XORed with the slot's word of mix.
func (s *Source) fill(seed int64, mix *[regLen]uint64) {
	s.tap = 0
	s.feed = regLen - regTap
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSub
	}
	x := uint64(seed)
	for i := range s.vec {
		pw := &lcgPow[i]
		s.vec[i] = int64(mulMod(x, pw[0])<<40 ^ mulMod(x, pw[1])<<20 ^ mulMod(x, pw[2]) ^ mix[i])
	}
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// pool holds generators for short-lived draws. Get reseeds each one, so
// what a previous user left in it never shows.
var pool = sync.Pool{New: func() any { return rand.New(new(Source)) }}

// Get returns a pooled generator reseeded with seed: it draws the same
// sequence as rand.New(rand.NewSource(seed)) without allocating a 4.9 KB
// register. Hand it back with Put when done.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put returns a generator from Get to the pool. The caller must not use
// it afterwards.
func Put(r *rand.Rand) { pool.Put(r) }
