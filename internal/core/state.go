package core

import (
	"mayacache/internal/probe"
	"mayacache/internal/snapshot"
)

// SaveState implements snapshot.Stateful. The dense lists (dataUsed,
// dataFree, p0List) are serialized verbatim, order included: the global
// random eviction policies index into them via r.Intn, so rebuilding them
// in any other order would change which victim a restored run picks and
// break bit-exact resume.
func (m *Maya) SaveState(e *snapshot.Encoder) {
	e.RNG(m.r)
	snapshot.SaveHasherEpoch(e, m.hasher)
	m.stats.SaveState(e)
	e.Count(len(m.tags))
	for i := range m.tags {
		t := &m.tags[i]
		e.U64(t.line)
		e.I32(t.fptr)
		e.I32(t.p0pos)
		e.U8(t.sdid)
		e.U8(t.core)
		e.U8(t.state)
		e.Bool(t.dirty)
		e.Bool(t.reused)
	}
	e.Count(len(m.validCnt))
	for _, v := range m.validCnt {
		e.U16(v)
	}
	e.Count(len(m.data))
	for i := range m.data {
		d := &m.data[i]
		e.I32(d.rptr)
		e.I32(d.usedPos)
		e.Bool(d.valid)
	}
	e.Count(len(m.dataUsed))
	for _, v := range m.dataUsed {
		e.I32(v)
	}
	e.Count(len(m.dataFree))
	for _, v := range m.dataFree {
		e.I32(v)
	}
	e.Count(len(m.p0List))
	for _, v := range m.p0List {
		e.I32(v)
	}
}

// RestoreState implements snapshot.Stateful on a freshly constructed Maya
// with identical configuration. Every index is range-checked during
// decode, and the full O(tags) Audit runs unconditionally afterwards, so
// a corrupt snapshot yields an error — never a panic later in the access
// path.
func (m *Maya) RestoreState(d *snapshot.Decoder) error {
	d.RNG(m.r)
	snapshot.RestoreHasherEpoch(d, m.hasher)
	if err := m.stats.RestoreState(d); err != nil {
		return err
	}
	nTags, nData := len(m.tags), len(m.data)
	if d.FixedCount(nTags, "maya tags") {
		for i := range m.tags {
			t := &m.tags[i]
			t.line = d.U64()
			t.fptr = d.I32()
			t.p0pos = d.I32()
			t.sdid = d.U8()
			t.core = d.U8()
			t.state = d.U8()
			t.dirty = d.Bool()
			t.reused = d.Bool()
			if d.Err() != nil {
				break
			}
			if t.state > stP1 {
				d.Fail("maya tags", "tag %d has state %d", i, t.state)
				break
			}
			if t.fptr < -1 || int(t.fptr) >= nData || t.p0pos < -1 || int(t.p0pos) >= nTags {
				d.Fail("maya tags", "tag %d has out-of-range pointers", i)
				break
			}
		}
	}
	if d.FixedCount(len(m.validCnt), "maya validCnt") {
		for i := range m.validCnt {
			m.validCnt[i] = d.U16()
		}
	}
	if d.FixedCount(nData, "maya data") {
		for i := range m.data {
			de := &m.data[i]
			de.rptr = d.I32()
			de.usedPos = d.I32()
			de.valid = d.Bool()
			if d.Err() != nil {
				break
			}
			if de.rptr < -1 || int(de.rptr) >= nTags || de.usedPos < -1 || int(de.usedPos) >= nData {
				d.Fail("maya data", "slot %d has out-of-range pointers", i)
				break
			}
		}
	}
	m.dataUsed = decodeSlotList(d, m.dataUsed[:0], nData, "maya dataUsed")
	m.dataFree = decodeSlotList(d, m.dataFree[:0], nData, "maya dataFree")
	m.p0List = decodeSlotList(d, m.p0List[:0], nTags, "maya p0List")
	if err := d.Err(); err != nil {
		return err
	}
	// tagLine, tagMeta, tagFP, and invMask are derived mirrors of tags;
	// rebuild rather than serialize them.
	for i := range m.tagFP {
		m.tagFP[i] = 0
	}
	for i := range m.tags {
		m.tagLine[i] = m.tags[i].line
		m.tagMeta[i] = 0
		if m.tags[i].state != stInvalid {
			m.tagMeta[i] = tagMetaOf(m.tags[i].sdid)
			m.setFP(int32(i), probe.Fingerprint(m.tags[i].line)) //mayavet:checked i < nTags <= MaxInt32 (New)
		}
	}
	if m.invMask != nil {
		for i := range m.invMask {
			m.invMask[i] = 0
		}
		for i := range m.tags {
			if m.tags[i].state == stInvalid {
				skewSet := i / m.ways
				m.invMask[skewSet] |= 1 << uint(i-skewSet*m.ways)
			}
		}
	}

	// Cross-validate the dense data-slot lists: dataUsed positions must
	// match usedPos back-pointers and used/free must partition the store.
	seen := make([]bool, nData)
	for pos, slot := range m.dataUsed {
		de := &m.data[slot]
		if !de.valid || de.usedPos != int32(pos) { //mayavet:checked pos < nData <= MaxInt32 (New)
			return &snapshot.CorruptError{At: "maya dataUsed", Detail: "position/back-pointer mismatch"}
		}
		seen[slot] = true
	}
	for _, slot := range m.dataFree {
		if m.data[slot].valid || seen[slot] {
			return &snapshot.CorruptError{At: "maya dataFree", Detail: "slot valid or duplicated"}
		}
		seen[slot] = true
	}
	// The structural invariants (FPTR/RPTR bijection, p0List bijection,
	// population caps, validCnt agreement) are exactly what Audit checks;
	// run it on every restore, mayacheck build or not.
	if err := m.Audit(); err != nil {
		return &snapshot.CorruptError{At: "maya state", Detail: err.Error()}
	}
	return nil
}

// decodeSlotList reads a dense index list whose entries must lie in
// [0, limit). The count is bounded by limit before any element is read.
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

var _ snapshot.Stateful = (*Maya)(nil)
