package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mayacache/internal/cachemodel"
	"mayacache/internal/snapshot"
)

// metricDef names one metric the benchmark prints, with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them from the untraced run. work_per_s counts the
// workload's own unit of work: simulated instructions (fig9-mcf8),
// occupancy samples (fig8-occupancy) or model iterations (fig7-buckets).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports every
// entry; a layer the workload never calls reads 0. README.md maps each
// entry to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// All workloads.
	{"layers.wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.init_s", "s"},
	// fig9-mcf8: trace generator, private L1D/L2, the three LLCs, residual.
	{"trace.events", "count"},
	{"trace.ns_per_event", "ns"},
	{"trace.s", "s"},
	{"baseline.private_accesses", "count"},
	{"baseline.private_ns_per_access", "ns"},
	{"baseline.private_s", "s"},
	{"baseline.l1d_hit_rate", "ratio"},
	{"baseline.l2_hit_rate", "ratio"},
	{"baseline.llc_accesses", "count"},
	{"baseline.llc_ns_per_access", "ns"},
	{"baseline.llc_s", "s"},
	{"mirage.accesses", "count"},
	{"mirage.ns_per_access", "ns"},
	{"mirage.s", "s"},
	{"core.accesses", "count"},
	{"core.ns_per_access", "ns"},
	{"core.s", "s"},
	{"cachesim.self_s", "s"},
	{"cachesim.self_share", "ratio"},
	{"cachemodel.build_s", "s"},
	// fig8-occupancy: the attacked caches, PRINCE, the memo, residual.
	{"baseline.sa_accesses", "count"},
	{"baseline.sa_ns_per_access", "ns"},
	{"baseline.sa_s", "s"},
	{"baseline.fa_accesses", "count"},
	{"baseline.fa_ns_per_access", "ns"},
	{"baseline.fa_s", "s"},
	{"probe.memo_hit_rate", "ratio"},
	{"probe.memo_misses", "count"},
	{"prince.ns_per_index", "ns"},
	{"attack.samples", "count"},
	{"attack.self_s", "s"},
	{"attack.self_share", "ratio"},
	{"attack.keysearch_s", "s"},
	// fig7-buckets: the bucket-and-balls model on the mc engine.
	{"buckets.iters", "count"},
	{"buckets.ns_per_iter", "ns"},
	{"mc.parallel_eff", "ratio"},
	{"analytic.solve_s", "s"},
}

// withAllLayers returns l with every per-layer metric present: a layer
// the workload never calls reads 0. The parent adds runtime.init_s.
func withAllLayers(l map[string]float64) map[string]float64 {
	for _, m := range perLayer {
		if _, ok := l[m.name]; !ok && m.name != "runtime.init_s" {
			l[m.name] = 0
		}
	}
	return l
}

// quiesce collects garbage before a timed region, so that one region's
// garbage is not collected on the next region's clock.
func quiesce() { runtime.GC() }

// clockFloor measures the cost of the time.Now/time.Since pair that
// brackets a span: the median reading of an empty span and the mean cost
// of one pair. Layer calls take tens of nanoseconds, so replays are timed
// in bulk and never per call.
func clockFloor() (emptyNS, pairNS float64) {
	const n = 4096
	spans := make([]float64, n)
	start := time.Now()
	for i := range spans {
		t := time.Now()
		spans[i] = float64(time.Since(t))
	}
	pairNS = float64(time.Since(start)) / n
	sort.Float64s(spans)
	return spans[n/2], pairNS
}

// recorder wraps an LLC and captures the stream that crosses its
// boundary: every Access (up to limit; count keeps counting past it) and
// the stream position of each ResetStats. Replaying the captured accesses
// into a fresh cache built with the same seed reproduces the run's LLC
// work exactly, because every design is a pure function of its seed and
// its access sequence.
type recorder struct {
	cachemodel.LLC
	limit  int
	stream []cachemodel.Access
	count  uint64
	// resets holds the stream positions at which ResetStats was called.
	resets []int
	// other counts Flush and Probe calls, which the replay does not
	// reproduce; the workloads here make none, and a check says so.
	other uint64
}

func newRecorder(inner cachemodel.LLC, limit int) *recorder {
	return &recorder{LLC: inner, limit: limit}
}

func (r *recorder) Access(a cachemodel.Access) cachemodel.Result {
	if len(r.stream) < r.limit {
		r.stream = append(r.stream, a)
	}
	r.count++
	return r.LLC.Access(a)
}

func (r *recorder) ResetStats() {
	r.resets = append(r.resets, len(r.stream))
	r.LLC.ResetStats()
}

func (r *recorder) Flush(line uint64, sdid uint8) bool {
	r.other++
	return r.LLC.Flush(line, sdid)
}

func (r *recorder) Probe(line uint64, sdid uint8) (bool, bool) {
	r.other++
	return r.LLC.Probe(line, sdid)
}

// replay drives stream into c, calling ResetStats at the recorded
// positions, and returns the elapsed time of the whole loop.
func replay(c cachemodel.LLC, stream []cachemodel.Access, resets []int) time.Duration {
	quiesce()
	start := time.Now()
	next := 0
	for i, a := range stream {
		for next < len(resets) && resets[next] == i {
			c.ResetStats()
			next++
		}
		c.Access(a)
	}
	for ; next < len(resets); next++ {
		c.ResetStats()
	}
	return time.Since(start)
}

// stateBytes encodes a cache's full simulator state.
func stateBytes(c cachemodel.LLC) ([]byte, error) {
	s, ok := c.(interface{ SaveState(*snapshot.Encoder) })
	if !ok {
		return nil, fmt.Errorf("%s cannot encode its state", c.Name())
	}
	var e snapshot.Encoder
	s.SaveState(&e)
	return e.Data(), nil
}

// nsPer divides a duration by a count, in nanoseconds (0 for no work).
func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
