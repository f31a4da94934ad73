package fleet

// Tick is one step of the fleet simulator's virtual time. Everything
// time-like in the simulation — health-check cadence, cordon windows,
// shard durations on slow nodes — is counted in ticks, never in
// wall-clock, so a fleet campaign's schedule is a pure function of its
// seed and options and every interleaving is replayable.
type Tick int64

// Clock is the coordinator's virtual clock: a monotonically increasing
// tick counter advanced once per scheduling round. It exists so the
// simulation has a total order of events without ever reading the wall
// clock (which the nodeterm lint rule forbids in this package).
type Clock struct {
	tick Tick
}

// Advance steps the clock one tick and returns the new time.
func (c *Clock) Advance() Tick {
	c.tick++
	return c.tick
}

// Reset rewinds the clock to zero; each coordinator run starts from a
// cold fleet at tick 0.
func (c *Clock) Reset() { c.tick = 0 }
