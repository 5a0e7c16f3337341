package prince

import (
	"bytes"
	"testing"
)

// slotOf is the memo slot a line maps to.
func (r *Randomizer) slotOf(line uint64) uint64 { return (line * memoHashMul) >> r.memoShift }

// checkIndexes calls r.Indexes(line) and fails unless every skew's index
// equals the raw cipher's.
func checkIndexes(t testing.TB, r *Randomizer, line uint64) []int32 {
	t.Helper()
	dst := make([]int32, r.Skews())
	r.Indexes(line, dst)
	for s := range dst {
		if want := r.Index(s, line); int(dst[s]) != want {
			t.Fatalf("epoch %d line %#x skew %d: Indexes = %d, Index = %d", r.Epoch(), line, s, dst[s], want)
		}
	}
	return dst
}

func wantCounters(t *testing.T, r *Randomizer, hits, misses uint64) {
	t.Helper()
	if h, m := r.MemoCounters(); h != hits || m != misses {
		t.Fatalf("counters = (%d hits, %d misses), want (%d, %d)", h, m, hits, misses)
	}
}

func TestMemoRoundTrip(t *testing.T) {
	r := NewRandomizer(3, 12, 7)
	first := checkIndexes(t, r, 42)
	wantCounters(t, r, 0, 1)
	again := checkIndexes(t, r, 42)
	wantCounters(t, r, 1, 1)
	for s := range first {
		if first[s] != again[s] {
			t.Fatalf("skew %d: hit returned %d, miss computed %d", s, again[s], first[s])
		}
	}
	r.ResetMemoCounters()
	wantCounters(t, r, 0, 0)
	checkIndexes(t, r, 42) // the table survives a counter reset
	wantCounters(t, r, 1, 0)
}

func TestMemoEpochInvalidation(t *testing.T) {
	r := NewRandomizer(2, 10, 9)
	checkIndexes(t, r, 9)
	r.Rekey()
	checkIndexes(t, r, 9) // the epoch-0 entry is stale under the new keys
	wantCounters(t, r, 0, 2)
	r.RestoreEpoch(0)
	checkIndexes(t, r, 9) // the slot now holds the epoch-1 entry
	wantCounters(t, r, 0, 3)
	checkIndexes(t, r, 9)
	wantCounters(t, r, 1, 3)
	r.RestoreEpoch(1)
	checkIndexes(t, r, 9)
	wantCounters(t, r, 1, 4)

	// An entry of an earlier epoch revives when the epoch is restored.
	other := uint64(10)
	for r.slotOf(other) == r.slotOf(9) {
		other++
	}
	r.Rekey()
	checkIndexes(t, r, other)
	r.RestoreEpoch(1)
	checkIndexes(t, r, 9)
	wantCounters(t, r, 2, 5)

	// The empty-slot tag is never a live epoch: restoring to it bypasses
	// the memo instead of matching never-filled slots.
	r.RestoreEpoch(memoEmpty)
	for i := 0; i < 3; i++ {
		checkIndexes(t, r, 0)
	}
	wantCounters(t, r, 2, 8)
}

func TestMemoCollisionDisplaces(t *testing.T) {
	r := newRandomizer(1, 8, 3, 6)
	base := uint64(1)
	other := base + 1
	for r.slotOf(other) != r.slotOf(base) {
		other++
	}
	checkIndexes(t, r, base)
	checkIndexes(t, r, other)
	checkIndexes(t, r, base) // displaced by other
	wantCounters(t, r, 0, 3)
	checkIndexes(t, r, base)
	wantCounters(t, r, 1, 3)
}

// memoStats tallies what a driveMemo run exercised.
type memoStats struct {
	calls, collisions, revivals uint64
}

// driveMemo interprets program as a stream of Indexes calls over a small
// line pool, interleaved with Rekey and RestoreEpoch to earlier and later
// epochs, on a randomizer with a 16-slot memo so lines collide in slots
// constantly. Every Indexes result must equal the raw cipher's, and hits
// plus misses must equal the number of calls.
func driveMemo(t testing.TB, seed uint64, program []byte) memoStats {
	t.Helper()
	r := newRandomizer(3, 10, seed, 4)
	pool := make([]uint64, 48)
	for i := range pool {
		pool[i] = seed*0x9E3779B97F4A7C15 + uint64(i)*0x1000
	}
	var st memoStats
	// moves counts epoch changes; fillMove[s] is the move count when
	// slot s was last filled, so a hit on an older fill is a revival.
	var moves uint64
	fillMove := make([]uint64, len(r.memo))
	for _, op := range program {
		switch {
		case op < 0xC0:
			line := pool[int(op)%len(pool)]
			s := r.slotOf(line)
			slot := r.memo[s]
			live := slot.epoch == r.Epoch() && r.Epoch() != memoEmpty
			hit := live && slot.line == line
			if live && !hit {
				st.collisions++
			}
			h0, _ := r.MemoCounters()
			checkIndexes(t, r, line)
			if h1, _ := r.MemoCounters(); (h1 > h0) != hit {
				t.Fatalf("line %#x at epoch %d: memo hit = %v, slot predicts %v", line, r.Epoch(), h1 > h0, hit)
			}
			switch {
			case !hit:
				fillMove[s] = moves
			case fillMove[s] < moves:
				st.revivals++
			}
			st.calls++
			continue
		case op < 0xE0:
			r.Rekey()
		case op < 0xF0: // back to an earlier epoch
			back := uint64(op & 7)
			if back > r.Epoch() {
				back = r.Epoch()
			}
			r.RestoreEpoch(r.Epoch() - back)
		case op == 0xFF:
			r.RestoreEpoch(memoEmpty)
		default: // forward to a later epoch
			r.RestoreEpoch(r.Epoch() + uint64(op&7))
		}
		moves++
	}
	if h, m := r.MemoCounters(); h+m != st.calls {
		t.Fatalf("hits %d + misses %d != %d calls", h, m, st.calls)
	}
	return st
}

// TestMemoIndexesProperty runs a long seeded stream and checks that slot
// collisions and revived epochs (entries reused after RestoreEpoch back
// to the epoch that filled them) actually occurred.
func TestMemoIndexesProperty(t *testing.T) {
	program := make([]byte, 20000)
	g := uint64(0xC0FFEE)
	for i := range program {
		g ^= g << 13
		g ^= g >> 7
		g ^= g << 17
		program[i] = byte(g)
		if program[i] >= 0xC0 && g&0x300 != 0 {
			program[i] &= 0x7F // mostly lookups, so epochs stay warm
		}
	}
	st := driveMemo(t, 11, program)
	if st.collisions == 0 || st.revivals == 0 {
		t.Fatalf("stream exercised %d collisions and %d revivals; want both > 0", st.collisions, st.revivals)
	}
}

// FuzzMemoIndexes searches for interleavings of lookups, rekeys and epoch
// restores under which the memoized Indexes diverges from the cipher.
func FuzzMemoIndexes(f *testing.F) {
	f.Add(uint64(1), bytes.Repeat([]byte{0x01, 0x31, 0xC0, 0x01, 0xE1, 0x01}, 40))
	f.Add(uint64(2), bytes.Repeat([]byte{0x05, 0xF3, 0x05, 0xE7, 0x05, 0xFF, 0x05}, 40))
	f.Fuzz(func(t *testing.T, seed uint64, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		driveMemo(t, seed, program)
	})
}
