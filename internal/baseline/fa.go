package baseline

import (
	"fmt"
	"math"
	"math/bits"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// FullyAssociative is a true fully-associative cache with random
// replacement — the security gold standard against conflict-based attacks
// that the randomized designs approximate. Lookup goes through a flat
// open-addressed hash table over the slots (a real implementation would
// need an impractical CAM, which is the paper's motivation for
// Mirage/Maya): the table is a power of two at least four times the
// capacity, probes linearly, and deletes by backward shift, so it never
// grows, rehashes or holds tombstones.
type FullyAssociative struct {
	capacity int
	table    []int32 // open-addressed index: slot+1 of the line hashing here, 0 = empty
	shift    uint    // 64 - log2(len(table)): the multiplicative hash keeps the top bits
	mask     uint64  // len(table) - 1
	slots    []faEntry
	used     []int32 // dense list of occupied slots for O(1) random eviction
	r        *rng.Rand
	stats    cachemodel.Stats
	wbBuf    []cachemodel.WritebackOut
	matchSD  bool
}

type faKey struct {
	line uint64
	sdid uint8
}

type faEntry struct {
	key     faKey
	core    uint8
	valid   bool
	dirty   bool
	reused  bool
	usedPos int32
	tabPos  uint64 // position of the slot's reference in table
}

// NewFullyAssociativeChecked creates a fully-associative cache, returning
// an error wrapping cachemodel.ErrBadConfig when capacity is invalid.
func NewFullyAssociativeChecked(capacity int, seed uint64, matchSDID bool) (*FullyAssociative, error) {
	if capacity <= 0 {
		return nil, cachemodel.BadConfigf("baseline: FullyAssociative capacity must be positive, got %d", capacity)
	}
	// Slot and usedPos fields are int32, and the table stores slot+1;
	// every slot below is < capacity.
	if capacity > math.MaxInt32 {
		return nil, cachemodel.BadConfigf("baseline: FullyAssociative capacity %d overflows int32 slot indices", capacity)
	}
	// At most a quarter full, a miss mostly ends on its first probe.
	tableBits := bits.Len(uint(4*capacity - 1))
	c := &FullyAssociative{
		capacity: capacity,
		table:    make([]int32, 1<<tableBits),
		shift:    uint(64 - tableBits),
		mask:     1<<tableBits - 1,
		slots:    make([]faEntry, capacity),
		used:     make([]int32, 0, capacity),
		r:        rng.New(seed ^ 0xfa),
		matchSD:  matchSDID,
	}
	return c, nil
}

func (c *FullyAssociative) key(line uint64, sdid uint8) faKey {
	if c.matchSD {
		return faKey{line: line, sdid: sdid}
	}
	return faKey{line: line}
}

// home is k's first probe position: a Fibonacci hash of the line, with
// the domain folded into the top byte, keeping the table's index bits.
func (c *FullyAssociative) home(k faKey) uint64 {
	return ((k.line ^ uint64(k.sdid)<<56) * 0x9e3779b97f4a7c15) >> c.shift
}

// find returns k's table position and slot, or the position of the empty
// entry that ends its probe chain and slot -1. The table is never more
// than a quarter full, so every chain ends.
func (c *FullyAssociative) find(k faKey) (uint64, int32) {
	for i := c.home(k); ; i = (i + 1) & c.mask {
		ref := c.table[i]
		if ref == 0 {
			return i, -1
		}
		if c.slots[ref-1].key == k {
			return i, ref - 1
		}
	}
}

// unlink empties table position i and shifts the rest of its probe
// cluster back, so no lookup chain is broken and no tombstone is left.
func (c *FullyAssociative) unlink(i uint64) {
	for j := i; ; {
		c.table[i] = 0
		for {
			j = (j + 1) & c.mask
			ref := c.table[j]
			if ref == 0 {
				return
			}
			// The entry at j may fill the hole at i only if the hole
			// lies on its probe chain: no further from j than its home.
			moved := &c.slots[ref-1]
			if (j-c.home(moved.key))&c.mask >= (j-i)&c.mask {
				c.table[i] = ref
				moved.tabPos = i
				i = j
				break
			}
		}
	}
}

// Access implements cachemodel.LLC.
func (c *FullyAssociative) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}
	k := c.key(a.Line, a.SDID)
	pos, slot := c.find(k)
	if slot >= 0 {
		e := &c.slots[slot]
		if a.Type == cachemodel.Read {
			// Only demand hits count as reuse for dead-block stats.
			if !e.reused {
				s.FirstDemandReuses++
				e.reused = true
			}
		} else {
			e.dirty = true
		}
		s.TagHits++
		s.DataHits++
		return cachemodel.Result{TagHit: true, DataHit: true}
	}

	s.Misses++
	if a.Type == cachemodel.Read {
		s.DemandMisses++
	} else {
		s.WritebackMisses++
	}
	if len(c.used) < c.capacity {
		// Find a free slot: slots are allocated densely from the front,
		// but eviction frees arbitrary slots, so track via a free scan
		// only at startup; afterwards reuse the victim's slot.
		slot = int32(len(c.used)) //mayavet:checked len(used) < capacity <= MaxInt32 (NewFullyAssociative)
		if c.slots[slot].valid {
			// Startup invariant broken only if flushes occurred; fall
			// back to a scan.
			slot = -1
			for i := range c.slots {
				if !c.slots[i].valid {
					slot = int32(i) //mayavet:checked i < capacity <= MaxInt32 (NewFullyAssociative)
					break
				}
			}
		}
	} else {
		// Random global eviction.
		victim := int32(c.r.Intn(len(c.used))) //mayavet:checked Intn < len(used) <= capacity <= MaxInt32
		slot = c.used[victim]
		v := &c.slots[slot]
		if v.reused {
			s.ReusedDataEvictions++
		} else {
			s.DeadDataEvictions++
		}
		if v.core != a.Core {
			s.InterCoreEvictions++
		}
		if v.dirty {
			c.wbBuf = append(c.wbBuf, cachemodel.WritebackOut{Line: v.key.line, SDID: v.key.sdid})
			s.WritebacksToMem++
		}
		c.unlink(v.tabPos)
		c.removeUsedAt(victim)
		// The backward shift may have emptied part of k's probe chain.
		pos, _ = c.find(k)
	}

	e := &c.slots[slot]
	*e = faEntry{key: k, core: a.Core, valid: true, dirty: a.Type == cachemodel.Writeback}
	e.usedPos = int32(len(c.used)) //mayavet:checked len(used) < capacity <= MaxInt32 (NewFullyAssociative)
	e.tabPos = pos
	c.used = append(c.used, slot)
	c.table[pos] = slot + 1
	s.Fills++
	s.DataFills++
	return cachemodel.Result{Writebacks: c.wbBuf}
}

// removeUsedAt removes position pos from the dense used list (swap-remove).
func (c *FullyAssociative) removeUsedAt(pos int32) {
	last := int32(len(c.used) - 1)
	moved := c.used[last]
	c.used[pos] = moved
	c.slots[moved].usedPos = pos
	c.used = c.used[:last]
}

// Flush implements cachemodel.LLC.
func (c *FullyAssociative) Flush(line uint64, sdid uint8) bool {
	k := c.key(line, sdid)
	pos, slot := c.find(k)
	if slot < 0 {
		return false
	}
	e := &c.slots[slot]
	c.removeUsedAt(e.usedPos)
	c.unlink(pos)
	*e = faEntry{}
	c.stats.Flushes++
	return true
}

// Probe implements cachemodel.LLC.
func (c *FullyAssociative) Probe(line uint64, sdid uint8) (bool, bool) {
	_, slot := c.find(c.key(line, sdid))
	return slot >= 0, slot >= 0
}

// LookupPenalty implements cachemodel.LLC.
func (c *FullyAssociative) LookupPenalty() int { return 0 }

// StatsSnapshot implements cachemodel.LLC.
func (c *FullyAssociative) StatsSnapshot() cachemodel.Stats { return c.stats }

// ResetStats implements cachemodel.LLC.
func (c *FullyAssociative) ResetStats() { c.stats.Reset() }

// Name implements cachemodel.LLC.
func (c *FullyAssociative) Name() string {
	return fmt.Sprintf("FullyAssociative-%d", c.capacity)
}

// Geometry implements cachemodel.LLC.
func (c *FullyAssociative) Geometry() cachemodel.Geometry {
	return cachemodel.Geometry{
		Skews:       1,
		SetsPerSkew: 1,
		WaysPerSkew: c.capacity,
		DataEntries: c.capacity,
		TagEntries:  c.capacity,
	}
}

// Occupancy returns the number of resident lines.
func (c *FullyAssociative) Occupancy() int { return len(c.used) }
