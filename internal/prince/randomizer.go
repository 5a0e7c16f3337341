package prince

import (
	"mayacache/internal/invariant"
	"mayacache/internal/rng"
)

// Randomizer derives per-skew cache set indices from line addresses using
// one PRINCE instance per skew, as in CEASER-S, Scatter-Cache, Mirage, and
// Maya. The key is set at construction ("system boot" in the paper) and can
// be refreshed with Rekey, which the designs do after the (astronomically
// rare) set-associative eviction.
//
// Indexes fronts the cipher with an index memo: a direct-mapped table, a
// software TLB, whose slots hold one line's all-skew index vector tagged
// with the epoch it was computed under. Keys are a pure function of
// (seed, epoch), so a slot is valid exactly when its tag equals the
// current epoch: Rekey and RestoreEpoch retire or revive entries without
// touching the table, and a memo hit returns exactly what the cipher
// would (cross-checked under the mayacheck build tag).
type Randomizer struct {
	ciphers []*Cipher
	setMask uint64
	setBits uint
	seed    uint64
	epoch   uint64

	memo      []memoSlot
	memoIdx   []int32 // per-slot index vectors, stride len(ciphers)
	memoShift uint
	hits      uint64
	misses    uint64
}

type memoSlot struct {
	line  uint64
	epoch uint64 // epoch the slot was filled under; memoEmpty = never filled
}

const (
	// memoBits sizes the index memo: 2^15 slots covers the pinned bench
	// and attack working sets with high hit rates.
	memoBits = 15

	// memoEmpty tags a slot that was never filled. An epoch restored to
	// this value bypasses the memo, so the tag can never alias a live one.
	memoEmpty = ^uint64(0)

	// memoHashMul is the 64-bit Fibonacci multiplier; the high bits of
	// line*memoHashMul spread clustered line addresses across slots.
	memoHashMul = 0x9E3779B97F4A7C15
)

// NewRandomizer creates a randomizer for nSkews skews, each indexing
// 2^setBits sets, with keys derived deterministically from seed.
func NewRandomizer(nSkews int, setBits uint, seed uint64) *Randomizer {
	return newRandomizer(nSkews, setBits, seed, memoBits)
}

func newRandomizer(nSkews int, setBits uint, seed uint64, tableBits uint) *Randomizer {
	if nSkews < 1 {
		panic("prince: NewRandomizer needs at least one skew")
	}
	if setBits == 0 || setBits > 48 {
		panic("prince: setBits out of range")
	}
	r := &Randomizer{
		setBits:   setBits,
		setMask:   (1 << setBits) - 1,
		seed:      seed,
		memo:      make([]memoSlot, 1<<tableBits),
		memoIdx:   make([]int32, nSkews<<tableBits),
		memoShift: 64 - tableBits,
	}
	for i := range r.memo {
		r.memo[i].epoch = memoEmpty
	}
	r.ciphers = make([]*Cipher, nSkews)
	r.installKeys()
	return r
}

func (r *Randomizer) installKeys() {
	sm := r.seed ^ rng.Mix64(r.epoch+0x5eed)
	for i := range r.ciphers {
		k0 := rng.SplitMix64(&sm)
		k1 := rng.SplitMix64(&sm)
		r.ciphers[i] = New(k0, k1)
	}
}

// Index returns the set index for line in the given skew. It always runs
// the cipher; the memo fronts only Indexes.
func (r *Randomizer) Index(skew int, line uint64) int {
	return int(r.ciphers[skew].EncryptFast(line) & r.setMask)
}

// Indexes writes every skew's set index for line into dst (len(dst) must
// equal Skews()), serving repeat lines from the index memo.
func (r *Randomizer) Indexes(line uint64, dst []int32) {
	s := (line * memoHashMul) >> r.memoShift
	slot := &r.memo[s]
	vec := r.memoIdx[int(s)*len(r.ciphers):][:len(r.ciphers)]
	if slot.epoch == r.epoch && slot.line == line && r.epoch != memoEmpty {
		r.hits++
		copy(dst, vec)
		if invariant.Enabled {
			for skew := range dst {
				invariant.Check(int(dst[skew]) == r.Index(skew, line),
					"prince: memo index diverged at skew %d for line %#x", skew, line)
			}
		}
		return
	}
	r.misses++
	for skew := range dst {
		dst[skew] = int32(r.Index(skew, line))
	}
	if r.epoch != memoEmpty {
		slot.line, slot.epoch = line, r.epoch
		copy(vec, dst)
	}
}

// MemoCounters reports the index memo's hits and misses since the last
// ResetMemoCounters.
func (r *Randomizer) MemoCounters() (hits, misses uint64) { return r.hits, r.misses }

// ResetMemoCounters zeroes the hit/miss counters; the table is untouched.
func (r *Randomizer) ResetMemoCounters() { r.hits, r.misses = 0, 0 }

// Skews returns the number of skews.
func (r *Randomizer) Skews() int { return len(r.ciphers) }

// Sets returns the number of sets per skew.
func (r *Randomizer) Sets() int { return 1 << r.setBits }

// Rekey installs fresh keys (a new epoch). All previously computed indices
// become invalid; callers are expected to flush the cache.
func (r *Randomizer) Rekey() {
	r.epoch++
	r.installKeys()
}

// Epoch returns the number of rekeys performed.
func (r *Randomizer) Epoch() uint64 { return r.epoch }

// RestoreEpoch sets the epoch and reinstalls the matching keys. Keys are
// a pure function of (seed, epoch), so restoring the epoch recorded in a
// snapshot reproduces the exact index mapping the saved cache state was
// built under.
func (r *Randomizer) RestoreEpoch(epoch uint64) {
	r.epoch = epoch
	r.installKeys()
}

// LatencyCycles is the lookup latency the paper charges for a 12-round
// PRINCE in the address path.
const LatencyCycles = 3
