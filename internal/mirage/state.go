package mirage

import (
	"mayacache/internal/probe"
	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful. As in core, the dense lists are
// serialized verbatim: global random eviction draws indexes into them, so
// their order is part of the bit-exact state.
func (c *Mirage) SaveState(e *snapshot.Encoder) {
	e.RNG(c.r)
	snapshot.SaveHasherEpoch(e, c.hasher)
	c.stats.SaveState(e)
	e.Count(len(c.tags))
	for i := range c.tags {
		t := &c.tags[i]
		e.U64(t.line)
		e.I32(t.fptr)
		e.U8(t.sdid)
		e.U8(t.core)
		e.Bool(t.valid)
		e.Bool(t.dirty)
		e.Bool(t.reused)
	}
	e.Count(len(c.validCnt))
	for _, v := range c.validCnt {
		e.U16(v)
	}
	e.Count(len(c.data))
	for i := range c.data {
		d := &c.data[i]
		e.I32(d.rptr)
		e.I32(d.usedPos)
		e.Bool(d.valid)
	}
	e.Count(len(c.dataUsed))
	for _, v := range c.dataUsed {
		e.I32(v)
	}
	e.Count(len(c.dataFree))
	for _, v := range c.dataFree {
		e.I32(v)
	}
}

// RestoreState implements snapshot.Stateful on a freshly constructed
// Mirage with identical configuration; every index is range-checked and
// the full Audit runs unconditionally afterwards.
func (c *Mirage) RestoreState(d *snapshot.Decoder) error {
	d.RNG(c.r)
	snapshot.RestoreHasherEpoch(d, c.hasher)
	if err := c.stats.RestoreState(d); err != nil {
		return err
	}
	nTags, nData := len(c.tags), len(c.data)
	if d.FixedCount(nTags, "mirage tags") {
		for i := range c.tags {
			t := &c.tags[i]
			t.line = d.U64()
			t.fptr = d.I32()
			t.sdid = d.U8()
			t.core = d.U8()
			t.valid = d.Bool()
			t.dirty = d.Bool()
			t.reused = d.Bool()
			if d.Err() != nil {
				break
			}
			if t.fptr < -1 || int(t.fptr) >= nData {
				d.Fail("mirage tags", "tag %d has out-of-range fptr %d", i, t.fptr)
				break
			}
		}
	}
	if d.FixedCount(len(c.validCnt), "mirage validCnt") {
		for i := range c.validCnt {
			c.validCnt[i] = d.U16()
		}
	}
	if d.FixedCount(nData, "mirage data") {
		for i := range c.data {
			de := &c.data[i]
			de.rptr = d.I32()
			de.usedPos = d.I32()
			de.valid = d.Bool()
			if d.Err() != nil {
				break
			}
			if de.rptr < -1 || int(de.rptr) >= nTags || de.usedPos < -1 || int(de.usedPos) >= nData {
				d.Fail("mirage data", "slot %d has out-of-range pointers", i)
				break
			}
		}
	}
	c.dataUsed = decodeSlotList(d, c.dataUsed[:0], nData, "mirage dataUsed")
	c.dataFree = decodeSlotList(d, c.dataFree[:0], nData, "mirage dataFree")
	if err := d.Err(); err != nil {
		return err
	}
	// tagLine, tagMeta, tagFP, and invMask are derived mirrors of tags;
	// rebuild rather than serialize them.
	for i := range c.tagFP {
		c.tagFP[i] = 0
	}
	for i := range c.tags {
		c.tagLine[i] = c.tags[i].line
		c.tagMeta[i] = 0
		if c.tags[i].valid {
			c.tagMeta[i] = tagMetaOf(c.tags[i].sdid)
			c.setFP(int32(i), probe.Fingerprint(c.tags[i].line)) //mayavet:checked i < nTags <= MaxInt32 (New)
		}
	}
	if c.invMask != nil {
		for i := range c.invMask {
			c.invMask[i] = 0
		}
		for i := range c.tags {
			if !c.tags[i].valid {
				skewSet := i / c.ways
				c.invMask[skewSet] |= 1 << uint(i-skewSet*c.ways)
			}
		}
	}

	seen := make([]bool, nData)
	for pos, slot := range c.dataUsed {
		de := &c.data[slot]
		if !de.valid || de.usedPos != int32(pos) { //mayavet:checked pos < nData <= MaxInt32 (New)
			return &snapshot.CorruptError{At: "mirage dataUsed", Detail: "position/back-pointer mismatch"}
		}
		seen[slot] = true
	}
	for _, slot := range c.dataFree {
		if c.data[slot].valid || seen[slot] {
			return &snapshot.CorruptError{At: "mirage dataFree", Detail: "slot valid or duplicated"}
		}
		seen[slot] = true
	}
	if err := c.Audit(); err != nil {
		return &snapshot.CorruptError{At: "mirage state", Detail: err.Error()}
	}
	return nil
}

// decodeSlotList reads a dense index list whose entries must lie in
// [0, limit); the count is bounded by limit before any element is read.
func decodeSlotList(d *snapshot.Decoder, dst []int32, limit int, what string) []int32 {
	n := d.Count(limit)
	for i := 0; i < n; i++ {
		v := d.I32()
		if d.Err() != nil {
			break
		}
		if v < 0 || int(v) >= limit {
			d.Fail(what, "index %d out of range [0,%d)", v, limit)
			break
		}
		dst = append(dst, v)
	}
	return dst
}

var _ snapshot.Stateful = (*Mirage)(nil)
