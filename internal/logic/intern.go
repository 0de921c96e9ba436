package logic

// Hashing and sizing for the two open-addressed hash-consing tables of the
// package — Factory.intern over formula nodes and bddSpace.unique over BDD
// nodes. Both store only a node index per slot and compare keys against
// the node arena; each owner probes inline (a probe through a callback
// is a call the compiler does not inline, once per slot visited). Generic
// Go maps spend most of a simulation's time hashing composite keys; these
// tables cut that cost several-fold.

// tableSize is the number of slots, a power of two, an open-addressed
// table starts with so that capacity entries fill it at most half.
func tableSize(capacity int) int {
	size := 16
	for size < capacity*2 {
		size *= 2
	}
	return size
}

// arenaRoom is how many nodes a table of slots holds before its owner
// doubles it (at two thirds full): an arena given this capacity with the
// table is never reallocated by an append in between. append alone would
// grow a large arena by a quarter at a time, copying it about five times
// over on the way to its final size.
func arenaRoom(slots int) int { return slots*2/3 + 1 }

//hoyan:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

//hoyan:hotpath
func hash3(a, b, c uint64) uint64 {
	return mix64(a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9)
}
