package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mayacache/internal/cachesim"
	"mayacache/internal/faults"
)

// Tiny but real simulations: big enough to cross several auto-snapshot
// intervals, small enough to keep the suite fast.
const (
	testWarmup uint64 = 20_000
	testROI    uint64 = 30_000
	testEvery  uint64 = 4_096
)

func testSpec(tenant string, seed uint64) Spec {
	return Spec{
		Tenant: tenant, Design: "Baseline", Bench: "mcf",
		Cores: 1, Warmup: testWarmup, ROI: testROI, Seed: seed,
	}
}

func openServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = testEvery
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 7
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// waitState polls until the session reaches a terminal state or the
// deadline passes.
func waitState(t *testing.T, s *Server, id string, want string) *SessionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := s.Session(id)
		if info == nil {
			t.Fatalf("session %s disappeared", id)
		}
		if info.State == want {
			return info
		}
		if info.State == StateDone || info.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("session %s state %q (err %q), want %q", id, info.State, info.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycle: admissions run to completion, results decode, the
// journal survives a graceful close, and a reopened server serves the
// same bytes without re-simulating.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openServer(t, Config{Dir: dir, Workers: 2})
	s.Start(context.Background())

	id1, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	id2, err := s.Admit(testSpec("zworks", 2))
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if id1 != "s000001" || id2 != "s000002" {
		t.Fatalf("ids = %s, %s", id1, id2)
	}
	waitState(t, s, id1, StateDone)
	waitState(t, s, id2, StateDone)

	raw1, errMsg, ok := s.Result(id1)
	if !ok || errMsg != "" {
		t.Fatalf("result 1: ok=%v err=%q", ok, errMsg)
	}
	var res cachesim.Results
	if err := json.Unmarshal(raw1, &res); err != nil {
		t.Fatalf("result does not decode: %v", err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Instructions == 0 {
		t.Fatalf("implausible result %+v", res)
	}
	st := s.StatsNow()
	if st.Completed != 2 || st.Failed != 0 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: both sessions are served from the journal, byte-identical.
	s2 := openServer(t, Config{Dir: dir, Workers: 2})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatalf("close 2: %v", err)
		}
	}()
	if got := s2.StatsNow(); got.Completed != 2 || got.Recovered != 0 {
		t.Fatalf("reopened stats %+v", got)
	}
	raw1b, _, ok := s2.Result(id1)
	if !ok || !bytes.Equal(raw1, raw1b) {
		t.Fatalf("reopened result differs:\n %s\n %s", raw1, raw1b)
	}
}

// TestBadSpecs: validation rejects each malformed field with ErrBadSpec
// before anything is journaled.
func TestBadSpecs(t *testing.T) {
	s := openServer(t, Config{Dir: t.TempDir()})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	bad := []Spec{
		{},
		{Tenant: "UPPER", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: strings.Repeat("a", 40), Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "NotADesign", Bench: "mcf", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "nope", Cores: 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 0, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: MaxCores + 1, ROI: 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 0},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: MaxInstr + 1},
		{Tenant: "t", Design: "Maya", Bench: "mcf", Cores: 1, ROI: 1, DeadlineMS: -1},
	}
	for i, sp := range bad {
		if _, err := s.Admit(sp); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("bad spec %d admitted (err=%v)", i, err)
		}
	}
	if n := len(s.ck.Keys()); n != 0 {
		t.Fatalf("rejected specs left %d journal records", n)
	}
}

// TestCrashRecoveryByteIdentity is the chaos core: a server hard-stopped
// mid-ROI (the in-process stand-in for kill -9 — no drain, no trigger,
// no terminal records) recovers every session from its last durable
// snapshot and finishes with results byte-identical to an undisturbed
// server computing the same specs.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	specs := []Spec{testSpec("acme", 1), testSpec("acme", 2), testSpec("zworks", 3)}

	// Reference: undisturbed run.
	ref := openServer(t, Config{Dir: t.TempDir(), Workers: 2})
	ref.Start(context.Background())
	refBytes := map[int]json.RawMessage{}
	for i, sp := range specs {
		id, err := ref.Admit(sp)
		if err != nil {
			t.Fatalf("ref admit %d: %v", i, err)
		}
		waitState(t, ref, id, StateDone)
		raw, _, _ := ref.Result(id)
		refBytes[i] = raw
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Chaos: same specs, hard-stopped once every session has at least one
	// durable save (so every resume is genuinely mid-run). Each session
	// parks in OnSave after its first save until the hard stop, so none
	// can finish, and journal a terminal record, while another has yet
	// to save.
	dir := t.TempDir()
	var mu sync.Mutex
	saved := map[string]int{}
	allSaved := make(chan struct{})
	victimCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	victim := openServer(t, Config{
		Dir: dir, Workers: len(specs),
		OnSave: func(key string, saves int) {
			mu.Lock()
			saved[key]++
			n := len(saved)
			mu.Unlock()
			if n == len(specs) {
				select {
				case <-allSaved:
				default:
					close(allSaved)
				}
			}
			<-victimCtx.Done()
		},
	})
	victim.Start(victimCtx)
	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := victim.Admit(sp)
		if err != nil {
			t.Fatalf("victim admit %d: %v", i, err)
		}
		ids[i] = id
	}
	select {
	case <-allSaved:
	case <-time.After(60 * time.Second):
		t.Fatal("sessions never reached a durable save")
	}
	hardStop()
	if err := victim.Close(); err != nil { // hard cancel: no drain, no records
		t.Fatal(err)
	}

	// Recovery: every session re-admitted and resumed to the same bytes.
	rec := openServer(t, Config{Dir: dir, Workers: 2})
	if got := rec.StatsNow(); got.Recovered != len(specs) {
		t.Fatalf("recovered %d sessions, want %d", got.Recovered, len(specs))
	}
	rec.Start(context.Background())
	for i, id := range ids {
		waitState(t, rec, id, StateDone)
		raw, errMsg, ok := rec.Result(id)
		if !ok || errMsg != "" {
			t.Fatalf("recovered result %s: ok=%v err=%q", id, ok, errMsg)
		}
		if !bytes.Equal(raw, refBytes[i]) {
			t.Fatalf("session %s diverged after crash recovery:\n ref %s\n got %s", id, refBytes[i], raw)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainResume: the graceful half of shutdown. Drain stops admissions
// (503-class ErrDraining), persists running sessions via the snapshot
// trigger, and parks every worker before the grace window would expire;
// the next boot completes the drained sessions byte-identically.
func TestDrainResume(t *testing.T) {
	// Reference bytes for the spec.
	ref := openServer(t, Config{Dir: t.TempDir(), Workers: 1})
	ref.Start(context.Background())
	refID, err := ref.Admit(testSpec("acme", 9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, refID, StateDone)
	refRaw, _, _ := ref.Result(refID)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	firstSave := make(chan struct{})
	var once sync.Once
	s := openServer(t, Config{
		Dir: dir, Workers: 1,
		OnSave: func(string, int) { once.Do(func() { close(firstSave) }) },
	})
	s.Start(context.Background())
	id, err := s.Admit(testSpec("acme", 9))
	if err != nil {
		t.Fatal(err)
	}
	<-firstSave
	s.Drain()
	select {
	case <-s.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not park the workers")
	}
	if _, err := s.Admit(testSpec("acme", 10)); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission during drain: %v", err)
	}
	// The drained session has no terminal record and stays queued.
	if info := s.Session(id); info.State != StateQueued {
		t.Fatalf("drained session state %q", info.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openServer(t, Config{Dir: dir, Workers: 1})
	if got := s2.StatsNow(); got.Recovered != 1 {
		t.Fatalf("recovered %d, want 1", got.Recovered)
	}
	s2.Start(context.Background())
	waitState(t, s2, id, StateDone)
	raw, _, _ := s2.Result(id)
	if !bytes.Equal(raw, refRaw) {
		t.Fatalf("drained+resumed result diverged:\n ref %s\n got %s", refRaw, raw)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadShedding: each watermark sheds with a structured ShedError and
// a sane Retry-After instead of queueing unboundedly.
func TestLoadShedding(t *testing.T) {
	slow, err := faults.ParseServe("slowtenant:hog:30s")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 1,
		Quotas: Quotas{TenantRunning: 1, TenantQueued: 1, GlobalQueued: 2},
		Faults: []*faults.ServeFault{slow},
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Session 1 occupies the only worker (stalled 30s by the injector);
	// session 2 sits in hog's queue slot.
	if _, err := s.Admit(testSpec("hog", 1)); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s)
	if _, err := s.Admit(testSpec("hog", 2)); err != nil {
		t.Fatal(err)
	}

	// Tenant queue full for hog…
	_, err = s.Admit(testSpec("hog", 3))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "tenant queue" {
		t.Fatalf("hog admission = %v, want tenant-queue shed", err)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > 5*time.Minute+2*time.Minute {
		t.Fatalf("retry-after %v out of range", shed.RetryAfter)
	}

	// …but other tenants still get in until the global queue fills.
	if _, err := s.Admit(testSpec("bystander", 4)); err != nil {
		t.Fatalf("bystander shed prematurely: %v", err)
	}
	_, err = s.Admit(testSpec("late", 5))
	if !errors.As(err, &shed) || shed.Reason != "global queue" {
		t.Fatalf("late admission = %v, want global-queue shed", err)
	}
	if got := s.StatsNow(); got.Shed != 2 {
		t.Fatalf("shed count %d, want 2", got.Shed)
	}
}

func waitRunning(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.StatsNow().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no session started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLatencyWatermarkShed: once observed p99 crosses the watermark,
// admissions shed even with queue capacity to spare.
func TestLatencyWatermarkShed(t *testing.T) {
	s := openServer(t, Config{Dir: t.TempDir(), Workers: 1, ShedP99: time.Nanosecond})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	id, err := s.Admit(testSpec("acme", 1)) // first admit: no observations yet
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone) // any real run exceeds 1ns
	_, err = s.Admit(testSpec("acme", 2))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "latency watermark" {
		t.Fatalf("post-watermark admission = %v, want latency shed", err)
	}
}

// TestSnapfailIsolation: an injected snapshot-write failure is one
// session's structured terminal error, not the server's.
func TestSnapfailIsolation(t *testing.T) {
	snapfail, err := faults.ParseServe("snapfail:s000001:2")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 2,
		Faults: []*faults.ServeFault{snapfail},
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	id1, err := s.Admit(testSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Admit(testSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := s.Session(id1)
		if info.State == StateFailed {
			if !strings.Contains(info.Error, "injected") {
				t.Fatalf("failure cause %q does not name the injected fault", info.Error)
			}
			break
		}
		if info.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("victim session state %q, want failed", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitState(t, s, id2, StateDone)
	if st := s.StatsNow(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeadline: a session past its per-run deadline fails terminally
// with a deadline error while the server keeps serving.
func TestDeadline(t *testing.T) {
	slow, err := faults.ParseServe("slowtenant:sloth:20s")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Dir: t.TempDir(), Workers: 2,
		Faults: []*faults.ServeFault{slow},
	})
	s.Start(context.Background())
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	sp := testSpec("sloth", 1)
	sp.DeadlineMS = 50
	id, err := s.Admit(sp)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := s.Session(id)
		if info.State == StateFailed {
			if !strings.Contains(info.Error, "deadline exceeded") {
				t.Fatalf("failure cause %q, want deadline exceeded", info.Error)
			}
			break
		}
		if info.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("session state %q, want deadline failure", info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The server is still healthy: a normal session completes.
	id2, err := s.Admit(testSpec("acme", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id2, StateDone)
}
