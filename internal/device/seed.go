package device

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ConfigSeed derives the meter seed for one configuration by mixing the
// campaign seed with the configuration's canonical key (FNV-1a over the
// little-endian seed followed by the key bytes). A point's measurement is
// therefore a pure function of (campaign seed, configuration identity) —
// independent of sweep order, worker count, and backend-specific struct
// layout. This is the successor of campaign's hashed (seed, BS, G, R)
// helper, generalized to any backend via Config.Key; it replaces the
// historical spec.Seed + i*7919 scheme whose meaning changed whenever the
// enumeration order did.
func ConfigSeed(seed int64, c Config) int64 { return KeySeed(seed, c.Key()) }

// KeySeed is ConfigSeed for a caller that already holds the
// configuration's key: KeySeed(seed, c.Key()) == ConfigSeed(seed, c),
// bit for bit. The hash is inlined, so deriving a seed allocates
// nothing.
func KeySeed(seed int64, key string) int64 {
	h := fnvWord(fnvOffset64, uint64(seed))
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int64(h)
}

// AttemptSeed is KeySeed continued over the little-endian bytes of n:
// the seed of the n-th draw for one identity — a fault injector's Run
// attempt, a fleet node's health tick, a shard's dispatch. KeySeed and
// AttemptSeed are the only seed hashes, so every meter, fault and
// fleet-chaos draw is a pure function of (seed, identity, counter).
func AttemptSeed(seed int64, key string, n int64) int64 {
	return int64(fnvWord(uint64(KeySeed(seed, key)), uint64(n)))
}

// fnvWord continues FNV-1a state h over the 8 little-endian bytes of u.
func fnvWord(h, u uint64) uint64 {
	for i := 0; i < 8; i, u = i+1, u>>8 {
		h ^= u & 0xff
		h *= fnvPrime64
	}
	return h
}
