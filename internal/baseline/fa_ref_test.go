package baseline

import (
	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// mapFA is the map-indexed fully-associative cache that FullyAssociative's
// open-addressed index replaced, kept verbatim as the reference the
// equivalence tests drive in lockstep with it: same slot allocation, same
// swap-remove used list, same RNG draws, a Go map for the lookup.
type mapFA struct {
	capacity int
	index    map[mapFAKey]int32 // key -> slot
	slots    []mapFAEntry
	used     []int32 // dense list of occupied slots for O(1) random eviction
	r        *rng.Rand
	stats    cachemodel.Stats
	wbBuf    []cachemodel.WritebackOut
	matchSD  bool
}

type mapFAKey struct {
	line uint64
	sdid uint8
}

type mapFAEntry struct {
	key     mapFAKey
	core    uint8
	valid   bool
	dirty   bool
	reused  bool
	usedPos int32
}

func newMapFA(capacity int, seed uint64, matchSDID bool) *mapFA {
	return &mapFA{
		capacity: capacity,
		index:    make(map[mapFAKey]int32, capacity),
		slots:    make([]mapFAEntry, capacity),
		used:     make([]int32, 0, capacity),
		r:        rng.New(seed ^ 0xfa),
		matchSD:  matchSDID,
	}
}

func (c *mapFA) key(line uint64, sdid uint8) mapFAKey {
	if c.matchSD {
		return mapFAKey{line: line, sdid: sdid}
	}
	return mapFAKey{line: line}
}

func (c *mapFA) Access(a cachemodel.Access) cachemodel.Result {
	c.wbBuf = c.wbBuf[:0]
	s := &c.stats
	s.Accesses++
	if a.Type == cachemodel.Read {
		s.Reads++
	} else {
		s.Writebacks++
	}
	k := c.key(a.Line, a.SDID)
	if slot, ok := c.index[k]; ok {
		e := &c.slots[slot]
		if a.Type == cachemodel.Read {
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
	var slot int32
	if len(c.used) < c.capacity {
		slot = int32(len(c.used)) //mayavet:checked len(used) < capacity, a small test geometry
		if c.slots[slot].valid {
			slot = -1
			for i := range c.slots {
				if !c.slots[i].valid {
					slot = int32(i) //mayavet:checked i < capacity, a small test geometry
					break
				}
			}
		}
	} else {
		pos := int32(c.r.Intn(len(c.used))) //mayavet:checked Intn < len(used) <= capacity, a small test geometry
		slot = c.used[pos]
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
		delete(c.index, v.key)
		c.removeUsedAt(pos)
	}

	e := &c.slots[slot]
	*e = mapFAEntry{key: k, core: a.Core, valid: true, dirty: a.Type == cachemodel.Writeback}
	e.usedPos = int32(len(c.used)) //mayavet:checked len(used) < capacity, a small test geometry
	c.used = append(c.used, slot)
	c.index[k] = slot
	s.Fills++
	s.DataFills++
	return cachemodel.Result{Writebacks: c.wbBuf}
}

func (c *mapFA) removeUsedAt(pos int32) {
	last := int32(len(c.used) - 1)
	moved := c.used[last]
	c.used[pos] = moved
	c.slots[moved].usedPos = pos
	c.used = c.used[:last]
}

func (c *mapFA) Flush(line uint64, sdid uint8) bool {
	k := c.key(line, sdid)
	slot, ok := c.index[k]
	if !ok {
		return false
	}
	e := &c.slots[slot]
	c.removeUsedAt(e.usedPos)
	delete(c.index, k)
	*e = mapFAEntry{}
	c.stats.Flushes++
	return true
}

func (c *mapFA) Probe(line uint64, sdid uint8) (bool, bool) {
	_, ok := c.index[c.key(line, sdid)]
	return ok, ok
}

func (c *mapFA) Occupancy() int { return len(c.used) }
