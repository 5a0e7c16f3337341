// Package cachemodel defines the shared contract between last-level cache
// designs (baseline, Mirage, Maya, CEASER-family, partitioned caches) and
// their consumers (the multi-core simulator in internal/cachesim and the
// attack framework in internal/attack).
//
// All designs operate on 64-byte line addresses (byte address >> 6) and are
// purely functional models with latency *classification*: a design reports
// whether an access hit in the tag store and/or the data store plus its
// constant lookup penalty, and the simulator converts that into cycles.
package cachemodel

// LineBytes is the cache line size used throughout the repository.
const LineBytes = 64

// AccessType classifies an LLC access.
type AccessType uint8

const (
	// Read is a demand access (load, instruction fetch, or RFO) arriving
	// from the L2.
	Read AccessType = iota
	// Writeback is a dirty eviction from the L2. Writebacks allocate on
	// miss (the hierarchy is non-inclusive, writeback-allocate at LLC).
	Writeback
)

// String implements fmt.Stringer for diagnostics.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "read"
	case Writeback:
		return "writeback"
	default:
		return "unknown"
	}
}

// Access is one LLC transaction.
type Access struct {
	// Line is the 64-byte-aligned line address (byte address >> 6).
	Line uint64
	// Type distinguishes demand reads from L2 writebacks.
	Type AccessType
	// SDID is the security domain that issued the access. Secure designs
	// key their tag match on (Line, SDID) so that shared lines are
	// duplicated per domain; the non-secure baseline ignores it for
	// matching but records it for statistics.
	SDID uint8
	// Core is the issuing core, used for inter-core interference
	// accounting only.
	Core uint8
}

// WritebackOut is a dirty line the LLC pushed toward memory as a side
// effect of an access.
type WritebackOut struct {
	Line uint64
	SDID uint8
}

// Result reports the outcome of one Access.
//
// The Writebacks slice aliases an internal buffer owned by the design and
// is only valid until the next call to Access or Flush.
type Result struct {
	// TagHit reports whether the tag store held the line.
	TagHit bool
	// DataHit reports whether the data store held the line. For
	// conventional designs DataHit == TagHit; for Maya a priority-0 entry
	// yields TagHit && !DataHit (a "tag-only hit", which still requires a
	// memory fetch).
	DataHit bool
	// SAE reports that this access caused a set-associative eviction —
	// the security event the randomized designs are built to prevent.
	SAE bool
	// Writebacks lists dirty lines evicted toward memory by this access.
	Writebacks []WritebackOut
}

// Miss reports whether the access must fetch the line from memory.
func (r Result) Miss() bool { return !r.DataHit }

// LLC is the interface all last-level cache designs implement.
type LLC interface {
	// Access performs one transaction and mutates the cache.
	//
	// Aliasing rule: the returned Result.Writebacks slice aliases a
	// scratch buffer owned by the design. It is valid only until the next
	// call to Access or Flush on the same cache; callers that need the
	// victims longer must copy them out before touching the cache again.
	Access(Access) Result
	// Flush invalidates (line, sdid) if present, returning whether a tag
	// was invalidated. It models clflush from the owning domain.
	Flush(line uint64, sdid uint8) bool
	// Probe reports residency without mutating replacement state.
	Probe(line uint64, sdid uint8) (tagHit, dataHit bool)
	// LookupPenalty is the additional lookup latency in cycles relative
	// to the non-secure baseline (e.g. 4 for Maya and Mirage: 3 cycles of
	// PRINCE plus 1 cycle of tag-to-data indirection).
	LookupPenalty() int
	// StatsSnapshot returns the design's counters by value. The snapshot
	// is decoupled from the cache: later accesses do not mutate it, so it
	// can be stored in results or compared across points in time.
	StatsSnapshot() Stats
	// ResetStats zeroes the counters (used after warmup).
	ResetStats()
	// Name identifies the design in reports.
	Name() string
	// Geometry describes the structure for storage accounting.
	Geometry() Geometry
}

// Geometry describes a design's structure in entries, for storage/area
// accounting and for reporting.
type Geometry struct {
	// Skews is the number of tag-store skews (1 for conventional caches).
	Skews int
	// SetsPerSkew is the number of sets in each skew.
	SetsPerSkew int
	// WaysPerSkew is the tag ways per set per skew.
	WaysPerSkew int
	// DataEntries is the number of data-store entries.
	DataEntries int
	// TagEntries is the total number of tag-store entries.
	TagEntries int
	// Decoupled reports whether tag and data stores are linked by
	// pointers (FPTR/RPTR) rather than by position.
	Decoupled bool
}

// DataBytes returns the data-store capacity in bytes.
func (g Geometry) DataBytes() int { return g.DataEntries * LineBytes }

// Stats holds the counters shared across designs. Individual designs update
// the subset that applies to them.
type Stats struct {
	Accesses   uint64 // total calls to Access
	Reads      uint64 // demand reads
	Writebacks uint64 // L2 writebacks received

	TagHits         uint64 // accesses that found their tag
	DataHits        uint64 // accesses that found their data
	TagOnlyHits     uint64 // Maya: tag hit on a priority-0 entry (still a data miss)
	Misses          uint64 // accesses with no data hit (fetch from memory)
	DemandMisses    uint64 // demand-read subset of Misses (the MPKI numerator)
	WritebackMisses uint64 // writeback subset of Misses

	Fills     uint64 // tag-store installs
	DataFills uint64 // data-store installs

	SAEs                uint64 // set-associative evictions (security events)
	GlobalTagEvictions  uint64 // Maya: random global priority-0 tag evictions
	GlobalDataEvictions uint64 // Maya/Mirage: random global data evictions

	WritebacksToMem uint64 // dirty lines evicted to memory

	// Dead-block accounting, evaluated when a data entry leaves the data
	// store: dead means it was never re-referenced after its data fill.
	DeadDataEvictions   uint64
	ReusedDataEvictions uint64
	// FirstDemandReuses counts data-store entries receiving their first
	// demand hit after the fill — the fill-based dead-block numerator.
	FirstDemandReuses uint64

	// InterCoreEvictions counts data evictions where the evicting access
	// came from a different core than the victim line's filler.
	InterCoreEvictions uint64

	Flushes uint64 // successful Flush calls
	Rekeys  uint64 // key refreshes triggered by SAEs

	// Index-memo telemetry, copied from a memoizing hasher's counters
	// (prince.Randomizer; see IndexMemo). Purely observational: the
	// counters are excluded from JSON results and from the snapshot wire
	// format, so runs with and without the memo stay byte-identical.
	MemoHits   uint64 `json:"-"` //mayavet:ignore snapshotfields -- telemetry only, excluded from the wire format by design
	MemoMisses uint64 `json:"-"` //mayavet:ignore snapshotfields -- telemetry only, excluded from the wire format by design
}

// WithoutMemo returns the stats with the memo telemetry zeroed. Memo
// counters are process-local (a restored cache restarts with a cold
// memo), so comparisons of *simulator* state must mask them.
func (s Stats) WithoutMemo() Stats {
	s.MemoHits, s.MemoMisses = 0, 0
	return s
}

// WithMemo returns the stats with the memo telemetry filled from h's
// counters when h memoizes its indexes (zero otherwise).
func (s Stats) WithMemo(h IndexHasher) Stats {
	if m, ok := h.(IndexMemo); ok {
		s.MemoHits, s.MemoMisses = m.MemoCounters()
	}
	return s
}

// ResetMemo zeroes h's memo counters when h memoizes its indexes; designs
// call it from ResetStats.
func ResetMemo(h IndexHasher) {
	if m, ok := h.(IndexMemo); ok {
		m.ResetMemoCounters()
	}
}

// MemoHitRate returns the fraction of index resolutions served by the
// index memo (0 when the design's hasher has none).
func (s *Stats) MemoHitRate() float64 {
	total := s.MemoHits + s.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(total)
}

// MPKI returns demand misses per kilo-instruction given an instruction
// count. Writeback misses are excluded: nothing stalls on them.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) * 1000 / float64(instructions)
}

// DataHitRate returns the fraction of accesses that hit in the data store.
func (s *Stats) DataHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.DataHits) / float64(s.Accesses)
}

// DeadBlockFraction returns the fraction of data fills that never received
// a demand hit (Fig 1's metric). It is fill-based, so lines still resident
// count as dead until their first reuse.
func (s *Stats) DeadBlockFraction() float64 {
	if s.DataFills == 0 {
		return 0
	}
	f := 1 - float64(s.FirstDemandReuses)/float64(s.DataFills)
	if f < 0 {
		return 0
	}
	return f
}

// EvictedDeadFraction is the eviction-based variant: the fraction of
// evicted data entries that were never reused while resident.
func (s *Stats) EvictedDeadFraction() float64 {
	total := s.DeadDataEvictions + s.ReusedDataEvictions
	if total == 0 {
		return 0
	}
	return float64(s.DeadDataEvictions) / float64(total)
}

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = Stats{} }

// IndexHasher maps (skew, line) to a set index. prince.Randomizer is the
// cryptographic implementation; XorHasher is a fast non-cryptographic
// stand-in for bulk performance simulation where only mapping uniformity
// matters (the lookup penalty charged is unchanged).
type IndexHasher interface {
	// Index computes one skew's set index for line.
	Index(skew int, line uint64) int
	// Indexes writes every skew's set index for line into dst, which has
	// length Skews(): dst[s] == Index(s, line). The randomized designs
	// make this one call per lookup.
	Indexes(line uint64, dst []int32)
	Rekey()
	Skews() int
	Sets() int
}

// IndexMemo is implemented by hashers whose Indexes is served from an
// index memo (prince.Randomizer); designs report its counters as
// Stats.MemoHits/MemoMisses.
type IndexMemo interface {
	MemoCounters() (hits, misses uint64)
	ResetMemoCounters()
}
