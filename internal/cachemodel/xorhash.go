package cachemodel

import "mayacache/internal/rng"

// XorHasher is a fast keyed multiplicative hasher with the same interface
// as the PRINCE randomizer. It is NOT cryptographic and exists so that
// bulk performance sweeps don't spend most of their time in the cipher;
// performance results depend only on mapping uniformity, which this
// provides. Security experiments use prince.Randomizer.
type XorHasher struct {
	keys    []uint64
	setMask uint64
	seed    uint64
	epoch   uint64
}

// NewXorHasher creates a hasher for nSkews skews of 2^setBits sets each.
func NewXorHasher(nSkews int, setBits uint, seed uint64) *XorHasher {
	if nSkews < 1 {
		panic("cachemodel: NewXorHasher needs at least one skew")
	}
	h := &XorHasher{setMask: (1 << setBits) - 1, seed: seed}
	h.keys = make([]uint64, nSkews)
	h.installKeys()
	return h
}

func (h *XorHasher) installKeys() {
	sm := h.seed ^ rng.Mix64(h.epoch+0xabcd)
	for i := range h.keys {
		h.keys[i] = rng.SplitMix64(&sm) | 1
	}
}

// Index returns the set index for line in skew.
func (h *XorHasher) Index(skew int, line uint64) int {
	x := line ^ h.keys[skew]
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & h.setMask)
}

// Indexes writes every skew's set index for line into dst.
func (h *XorHasher) Indexes(line uint64, dst []int32) {
	for skew := range dst {
		dst[skew] = int32(h.Index(skew, line))
	}
}

// Rekey installs fresh keys.
func (h *XorHasher) Rekey() {
	h.epoch++
	h.installKeys()
}

// Epoch returns the number of rekeys performed.
func (h *XorHasher) Epoch() uint64 { return h.epoch }

// RestoreEpoch sets the epoch and reinstalls the matching keys; keys are a
// pure function of (seed, epoch), mirroring prince.Randomizer.
func (h *XorHasher) RestoreEpoch(epoch uint64) {
	h.epoch = epoch
	h.installKeys()
}

// Skews returns the skew count.
func (h *XorHasher) Skews() int { return len(h.keys) }

// Sets returns sets per skew.
func (h *XorHasher) Sets() int { return int(h.setMask) + 1 }

// ModuloHasher indexes by the line address's low bits, as a conventional
// non-secure cache does. It ignores skew and cannot be rekeyed.
type ModuloHasher struct {
	setMask uint64
}

// NewModuloHasher creates a power-of-two modulo indexer.
func NewModuloHasher(setBits uint) *ModuloHasher {
	return &ModuloHasher{setMask: (1 << setBits) - 1}
}

// Index returns line mod sets.
func (h *ModuloHasher) Index(_ int, line uint64) int { return int(line & h.setMask) }

// Indexes writes line's set index into dst (one skew).
func (h *ModuloHasher) Indexes(line uint64, dst []int32) {
	for skew := range dst {
		dst[skew] = int32(h.Index(skew, line))
	}
}

// Mask returns the set mask, letting hot callers fold the indexing into
// their own loop (line & Mask() == Index(0, line)) without an interface
// dispatch per access.
func (h *ModuloHasher) Mask() uint64 { return h.setMask }

// Rekey is a no-op: physical indexing has no key.
func (h *ModuloHasher) Rekey() {}

// Skews returns 1.
func (h *ModuloHasher) Skews() int { return 1 }

// Sets returns the number of sets.
func (h *ModuloHasher) Sets() int { return int(h.setMask) + 1 }
