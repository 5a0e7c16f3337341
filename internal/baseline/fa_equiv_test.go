package baseline

import (
	"bytes"
	"reflect"
	"testing"

	"mayacache/internal/cachemodel"
	"mayacache/internal/rng"
)

// faEquivCaps are the capacities the equivalence tests cover: the tiny
// ones give four- to thirty-two-entry tables, where probe chains wrap and
// evictions shift clusters back; 1024 is Fig 8's capacity at 64 sets.
var faEquivCaps = []int{1, 2, 3, 5, 8, 1024}

// The operations an equivalence program interleaves.
const (
	faOpRead = iota
	faOpWriteback
	faOpFlush
	faOpProbe
	faOpKinds
)

// faEquiv drives the open-addressed FullyAssociative and the map-indexed
// reference in lockstep and fails on the first observable difference.
type faEquiv struct {
	t    *testing.T
	got  *FullyAssociative
	want *mapFA
	span uint64 // lines are drawn from [0, span)
	step int
}

func newFAEquiv(t *testing.T, capacity int, seed uint64, matchSDID bool) *faEquiv {
	got, err := NewFullyAssociativeChecked(capacity, seed, matchSDID)
	if err != nil {
		t.Fatal(err)
	}
	// Twice the capacity plus a few: the caches run full, so most misses
	// evict, while lines recur often enough to hit, flush and reinstall.
	return &faEquiv{t: t, got: got, want: newMapFA(capacity, seed, matchSDID), span: uint64(2*capacity + 3)}
}

// do applies one operation to both caches and compares everything either
// exposes: the Result (writebacks included), or the Flush/Probe answer,
// then the Stats and the occupancy.
func (e *faEquiv) do(op int, line uint64, sdid, core uint8) {
	e.t.Helper()
	e.step++
	switch op {
	case faOpRead, faOpWriteback:
		typ := cachemodel.Read
		if op == faOpWriteback {
			typ = cachemodel.Writeback
		}
		a := cachemodel.Access{Line: line, Type: typ, SDID: sdid, Core: core}
		got, want := e.got.Access(a), e.want.Access(a)
		if !reflect.DeepEqual(got, want) {
			e.t.Fatalf("step %d: Access(%+v) = %+v, reference %+v", e.step, a, got, want)
		}
	case faOpFlush:
		if got, want := e.got.Flush(line, sdid), e.want.Flush(line, sdid); got != want {
			e.t.Fatalf("step %d: Flush(%d, %d) = %v, reference %v", e.step, line, sdid, got, want)
		}
	case faOpProbe:
		gt, gd := e.got.Probe(line, sdid)
		wt, wd := e.want.Probe(line, sdid)
		if gt != wt || gd != wd {
			e.t.Fatalf("step %d: Probe(%d, %d) = %v/%v, reference %v/%v", e.step, line, sdid, gt, gd, wt, wd)
		}
	}
	if got, want := e.got.StatsSnapshot(), e.want.stats; got != want {
		e.t.Fatalf("step %d: stats diverged:\n got %+v\nwant %+v", e.step, got, want)
	}
	if got, want := e.got.Occupancy(), e.want.Occupancy(); got != want {
		e.t.Fatalf("step %d: occupancy %d, reference %d", e.step, got, want)
	}
}

// checkTable verifies the index structurally: it holds exactly the
// resident slots, each at the position its slot records, and no entry's
// probe chain from its home crosses an empty position (the invariant
// backward-shift deletion must keep).
func (e *faEquiv) checkTable() {
	e.t.Helper()
	c := e.got
	n := 0
	for i, ref := range c.table {
		if ref == 0 {
			continue
		}
		n++
		ent := &c.slots[ref-1]
		if !ent.valid || ent.tabPos != uint64(i) {
			e.t.Fatalf("step %d: table position %d references slot %d (valid %v, recorded at %d)", e.step, i, ref-1, ent.valid, ent.tabPos)
		}
		for j := c.home(ent.key); j != uint64(i); j = (j + 1) & c.mask {
			if c.table[j] == 0 {
				e.t.Fatalf("step %d: empty position %d breaks the chain of slot %d (home %d, at %d)", e.step, j, ref-1, c.home(ent.key), i)
			}
		}
	}
	if n != len(c.used) {
		e.t.Fatalf("step %d: table holds %d entries, %d slots resident", e.step, n, len(c.used))
	}
}

// runProgram decodes program three bytes per operation: the operation
// kind, core and domain from the first, the line from the other two.
func (e *faEquiv) runProgram(program []byte) {
	e.t.Helper()
	for len(program) >= 3 {
		b := program[0]
		line := uint64(program[1])<<8 | uint64(program[2])
		program = program[3:]
		e.do(int(b)%faOpKinds, line%e.span, b>>7, b>>4&3)
		if len(e.got.slots) <= 8 {
			e.checkTable()
		}
	}
	e.checkTable()
}

func TestFAMatchesMapReference(t *testing.T) {
	for _, capacity := range faEquivCaps {
		for _, matchSDID := range []bool{false, true} {
			e := newFAEquiv(t, capacity, uint64(capacity)*7+1, matchSDID)
			r := rng.New(uint64(capacity) ^ 0x5eed)
			steps := 40 * int(e.span)
			for i := 0; i < steps; i++ {
				// Reads dominate, as in the attack; flushes come in bursts
				// so the cache also refills from partially empty.
				op := faOpRead
				switch x := r.Intn(16); {
				case x < 3:
					op = faOpWriteback
				case x < 5:
					op = faOpProbe
				case x < 6 || i%(4*capacity+7) < capacity/2:
					op = faOpFlush
				}
				e.do(op, uint64(r.Intn(int(e.span))), uint8(r.Intn(2)), uint8(r.Intn(4)))
				if capacity <= 8 || i%1024 == 0 {
					e.checkTable()
				}
			}
			e.checkTable()
			s := e.got.StatsSnapshot()
			if s.TagHits == 0 || s.DeadDataEvictions+s.ReusedDataEvictions == 0 || s.Flushes == 0 || s.WritebacksToMem == 0 {
				t.Errorf("capacity %d matchSDID %v: program too tame: %+v", capacity, matchSDID, s)
			}
		}
	}
}

// FuzzFAMatchesMapReference lets the fuzzer search for operation
// interleavings on which the open-addressed index and the map reference
// disagree.
func FuzzFAMatchesMapReference(f *testing.F) {
	f.Add(uint8(0), false, uint64(1), bytes.Repeat([]byte{0x00, 0x00, 0x01, 0x82, 0x00, 0x02}, 40))
	f.Add(uint8(3), true, uint64(9), bytes.Repeat([]byte{0x11, 0x01, 0x07, 0x80, 0x00, 0x03, 0x42, 0x00, 0x05}, 60))
	f.Add(uint8(4), false, uint64(3), bytes.Repeat([]byte{0x40, 0x51, 0xE2, 0x06, 0x12, 0x34}, 100))
	f.Add(uint8(5), true, uint64(5), bytes.Repeat([]byte{0x7f, 0xFF, 0x10, 0x00, 0x03, 0xFF}, 200))
	f.Fuzz(func(t *testing.T, sel uint8, matchSDID bool, seed uint64, program []byte) {
		if len(program) > 3*4096 {
			program = program[:3*4096]
		}
		newFAEquiv(t, faEquivCaps[int(sel)%len(faEquivCaps)], seed, matchSDID).runProgram(program)
	})
}
