// Package simtime provides the discrete-event simulation kernel used by
// all panrucio substrates: a virtual clock (VTime), a binary-heap event
// queue (Engine), and deterministic, splittable random-number helpers
// (RNG).
//
// The kernel is intentionally single-goroutine: a simulation advances by
// popping the earliest scheduled event and running its callback, which may
// schedule further events. Determinism is a hard requirement (DESIGN.md);
// for one seed the whole experiment suite reproduces bit-for-bit, so there
// is no wall-clock or goroutine-ordering dependence anywhere in the
// kernel. Ties at the same virtual time are broken by schedule order, and
// RNG.Split derives independent named streams so each subsystem owns its
// randomness.
//
// The queue is a concrete binary heap whose slots hold the (time, seq) key
// inline beside the callback, so ordering never dereferences anything or
// boxes through an interface, and a schedule allocates nothing. seq is
// unique per engine, which makes the order total: same-instant events
// fire FIFO. At and After schedule a callback with no handle; Arm
// schedules one under a caller-owned, reusable Event handle, the only way
// to cancel. Cancellation is lazy — a cancelled or superseded slot stays
// queued (Pending counts it) until it reaches the head, where Step and
// RunUntil drop it. FuzzEngineOrder holds the engine to a reference that
// stable-sorts a plain slice by time, over handle-less and armed
// schedules, cancels and re-arms.
//
// Streams are identical to math/rand.NewSource(seed): for every seed, an
// RNG draws exactly what rand.New(rand.NewSource(seed)) would, through
// every helper and across Reseed and SplitInto. The source behind RNG
// computes each word of that state on first use, so seeding is O(1)
// instead of math/rand's 1,841 LCG steps; the oracle tests and
// FuzzRNGStream hold it to the contract.
//
// Entry points: NewEngine(start, horizon) then Run; NewRNG(seed) and
// RNG.Split(name) for the per-subsystem streams.
package simtime
