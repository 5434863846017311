package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
	"tdmnoc/internal/stats"
)

// testSpec is a small 3-axis grid (2 modes x 2 rates x 2 seeds x
// 1 pattern = 8 jobs) sized so the full campaign runs in well under a
// second.
func testSpec() Spec {
	return Spec{
		Name:          "test",
		Modes:         []string{"packet", "tdm"},
		Patterns:      []string{"tornado"},
		Meshes:        []MeshSize{{4, 4}},
		Rates:         []float64{0.05, 0.10},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  200,
		MeasureCycles: 600,
	}
}

func TestSpecExpand(t *testing.T) {
	s := testSpec()
	jobs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(jobs) != 8 {
		t.Fatalf("expanded %d jobs, want 8", len(jobs))
	}
	if got := s.Jobs(); got != len(jobs) {
		t.Errorf("Jobs() = %d, want %d", got, len(jobs))
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if keys[j.Key] {
			t.Errorf("duplicate job key %s", j.Key)
		}
		keys[j.Key] = true
		if j.Config.Width != 4 || j.Config.Height != 4 {
			t.Errorf("job mesh %dx%d, want 4x4", j.Config.Width, j.Config.Height)
		}
	}
	// Expansion must be deterministic: same spec, same order, same keys.
	jobs2, _ := s.Expand()
	for i := range jobs {
		if jobs[i].Key != jobs2[i].Key {
			t.Fatalf("expansion order not deterministic at %d", i)
		}
	}
}

func TestSpecSlotAxisCollapsesForNonTDM(t *testing.T) {
	s := testSpec()
	s.Modes = []string{"packet", "tdm"}
	s.SlotTables = []int{64, 128}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// packet: 1 slot point x 2 rates x 2 seeds = 4; tdm: 2 x 2 x 2 = 8.
	if len(jobs) != 12 {
		t.Fatalf("expanded %d jobs, want 12 (slot axis must collapse for packet mode)", len(jobs))
	}
}

func TestSpecRehydrate(t *testing.T) {
	s := testSpec()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	hash := s.Hash()

	// A marshal/unmarshal round trip (what a journal or checkpoint does)
	// rehydrates to the same normalized spec and passes the hash check.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Rehydrate(hash)
	if err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	if got.Hash() != hash {
		t.Fatalf("rehydrated hash %s != %s", got.Hash(), hash)
	}

	// A wrong recorded hash — the persisted-under-different-semantics
	// case — fails loudly.
	if _, err := back.Rehydrate("deadbeef"); err == nil {
		t.Fatal("Rehydrate accepted a mismatched hash")
	}

	// An empty hash skips the check but still normalizes/validates.
	if _, err := back.Rehydrate(""); err != nil {
		t.Fatalf("Rehydrate with empty hash: %v", err)
	}
	if _, err := (Spec{}).Rehydrate(""); err == nil {
		t.Fatal("Rehydrate normalized an invalid spec")
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{Patterns: []string{"ur"}, Rates: []float64{0.1}},                            // no modes
		{Modes: []string{"tdm"}, Rates: []float64{0.1}},                              // no patterns
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}},                           // no rates
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0}},      // zero rate
		{Modes: []string{"warp"}, Patterns: []string{"ur"}, Rates: []float64{0.1}},   // bad mode
		{Modes: []string{"tdm"}, Patterns: []string{"zigzag"}, Rates: []float64{.1}}, // bad pattern
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0.1}, Meshes: []MeshSize{{0, 6}}},
		{Modes: []string{"tdm"}, Patterns: []string{"ur"}, Rates: []float64{0.1}, SlotTables: []int{-1}},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d normalized without error", i)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"modes":["tdm"],"patterns":["ur"],"rates":[0.1],"typo_field":1}`))
	if err == nil {
		t.Fatal("spec with unknown field accepted")
	}
}

// readStoreLines reads a JSONL store file into sorted lines.
func readStoreLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	sort.Strings(lines)
	return lines
}

// TestCampaignDeterminism is the headline guarantee: the same spec run
// with one worker and with eight workers produces byte-identical JSONL
// records (modulo ordering).
func TestCampaignDeterminism(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	paths := [2]string{filepath.Join(dir, "serial.jsonl"), filepath.Join(dir, "parallel.jsonl")}
	for i, workers := range []int{1, 8} {
		store, err := OpenStore(paths[i])
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		eng := New(Options{Workers: workers, Store: store})
		recs := eng.Run(context.Background(), jobs)
		store.Close()
		for _, r := range recs {
			if r.Err != "" {
				t.Fatalf("workers=%d: job %s failed: %s", workers, r.Label, r.Err)
			}
			if r.Result.Packets == 0 {
				t.Fatalf("workers=%d: job %s delivered no packets", workers, r.Label)
			}
		}
	}
	serial, parallel := readStoreLines(t, paths[0]), readStoreLines(t, paths[1])
	if len(serial) != len(parallel) || len(serial) != len(jobs) {
		t.Fatalf("line counts: serial %d, parallel %d, jobs %d", len(serial), len(parallel), len(jobs))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("record %d differs:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestCampaignResume interrupts a campaign after half its jobs and
// checks that re-running the full spec serves the finished half from
// the persisted store without recomputing.
func TestCampaignResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}

	// First run: only half the jobs "complete" before the interrupt.
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	half := jobs[:len(jobs)/2]
	eng := New(Options{Workers: 2, Store: store})
	for _, r := range eng.Run(context.Background(), half) {
		if r.Err != "" {
			t.Fatalf("first run: %s: %s", r.Label, r.Err)
		}
	}
	store.Close() // simulate the process dying

	// Resumed run over the full spec.
	store2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store2.Close()
	if store2.Len() != len(half) {
		t.Fatalf("reloaded %d records, want %d", store2.Len(), len(half))
	}
	eng2 := New(Options{Workers: 2, Store: store2})
	recs := eng2.Run(context.Background(), jobs)
	st := eng2.Status()
	if st.CacheHits != int64(len(half)) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, len(half))
	}
	if st.Done != int64(len(jobs)) {
		t.Errorf("done = %d, want %d", st.Done, len(jobs))
	}
	// Expected simulated cycles: only the second half ran.
	wantCycles := int64(0)
	for _, j := range jobs[len(jobs)/2:] {
		wantCycles += int64(j.Warmup + j.Measure)
	}
	if st.CyclesSimulated != wantCycles {
		t.Errorf("cycles simulated = %d, want %d", st.CyclesSimulated, wantCycles)
	}
	for i, r := range recs {
		if r.Err != "" {
			t.Errorf("resumed job %s failed: %s", r.Label, r.Err)
		}
		if i < len(half) && !r.Cached {
			t.Errorf("job %d should have been served from cache", i)
		}
	}

	// A third run must be 100% cache hits.
	eng3 := New(Options{Workers: 2, Store: store2})
	eng3.Run(context.Background(), jobs)
	if st := eng3.Status(); st.CacheHits != int64(len(jobs)) || st.CyclesSimulated != 0 {
		t.Errorf("full re-run: cache hits %d (want %d), cycles %d (want 0)",
			st.CacheHits, len(jobs), st.CyclesSimulated)
	}
}

// TestEngineDedupsWithinRun checks that duplicate keys inside one job
// list simulate once.
func TestEngineDedupsWithinRun(t *testing.T) {
	var runs atomic.Int64
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		runs.Add(1)
		return stats.RunRecord{Runs: 1, Cycles: int64(j.Measure), Packets: 1}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 100, 200, "dup")
	eng := New(Options{Workers: 4, Runner: runner})
	recs := eng.Run(context.Background(), []Job{j, j, j})
	if runs.Load() != 1 {
		t.Errorf("runner invoked %d times, want 1", runs.Load())
	}
	for i, r := range recs {
		if r.Err != "" || r.Result.Packets != 1 {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	if st := eng.Status(); st.Done != 3 || st.CacheHits != 2 {
		t.Errorf("status = %+v, want done 3 / cache hits 2", st)
	}
}

// TestEngineTimeoutAndCancel checks per-job timeout enforcement and
// campaign-level cancellation.
func TestEngineTimeoutAndCancel(t *testing.T) {
	block := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		<-ctx.Done()
		return stats.RunRecord{}, nil, ctx.Err()
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "block")

	eng := New(Options{Workers: 1, JobTimeout: 10 * time.Millisecond, Runner: block})
	recs := eng.Run(context.Background(), []Job{j})
	if recs[0].Err == "" {
		t.Error("timed-out job reported success")
	}
	if st := eng.Status(); st.Failed != 1 || st.Done != 0 {
		t.Errorf("status after timeout = %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng2 := New(Options{Workers: 1, Runner: block})
	recs2 := eng2.Run(ctx, []Job{j})
	if recs2[0].Err == "" {
		t.Error("cancelled job reported success")
	}
}

// TestEnginePanicRecovery checks that a panicking job becomes a failed
// record instead of crashing the campaign.
func TestEnginePanicRecovery(t *testing.T) {
	boom := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		panic("simulated router invariant violation")
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	jobs := []Job{
		NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "boom"),
	}
	eng := New(Options{Workers: 2, Runner: boom})
	recs := eng.Run(context.Background(), jobs)
	if !strings.Contains(recs[0].Err, "panic") {
		t.Errorf("panic not captured: %+v", recs[0])
	}
	if st := eng.Status(); st.Failed != 1 {
		t.Errorf("status = %+v", st)
	}
}

// TestEngineDrain checks that draining skips queued jobs but completes
// the in-flight one.
func TestEngineDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		if ran.Add(1) == 1 {
			close(started)
			<-release
		}
		return stats.RunRecord{Runs: 1, Packets: 1}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, NewJob(cfg, hsnoc.Tornado, 0.1+float64(i)/100, 0, 100, fmt.Sprintf("j%d", i)))
	}
	eng := New(Options{Workers: 1, Runner: runner})
	done := make(chan []Record)
	go func() { done <- eng.Run(context.Background(), jobs) }()
	<-started
	eng.Drain()
	close(release)
	recs := <-done
	// Exactly one job was in flight when the drain hit (a single-worker
	// pool, with an arbitrary job holding the slot); it must complete.
	// Every queued job must be skipped.
	completed, skipped := 0, 0
	for _, r := range recs {
		if r.Err == "" {
			completed++
		} else if strings.Contains(r.Err, "skipped") {
			skipped++
		}
	}
	if completed != 1 || skipped != 3 {
		t.Errorf("drain: %d completed / %d skipped, want 1 / 3", completed, skipped)
	}
}

// TestStoreSkipsTornLine checks crash tolerance of the JSONL reload.
func TestStoreSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	good := `{"key":"k1","mode":"Packet-VC4","pattern":"TOR","width":4,"height":4,"rate":0.1,"seed":1,"warmup":1,"measure":2,"result":{"runs":1,"cycles":2,"packets":3,"net_latency_sum":0,"total_latency_sum":0,"flit_cycles":0,"payload_cycles":0,"cs_frac_packets":0,"config_frac_packets":0,"energy_pj":1}}`
	if err := os.WriteFile(path, []byte(good+"\n"+`{"key":"k2","resu`), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	if store.Len() != 1 {
		t.Errorf("loaded %d records from torn store, want 1", store.Len())
	}
	if _, ok := store.Lookup("k1"); !ok {
		t.Error("intact record lost")
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != good+"\n" {
		t.Errorf("torn line not truncated: file is %q", onDisk)
	}
}

// TestStoreLoadsOversizedRecord guards the ReadBytes-based reload: a
// record far larger than bufio.Scanner's old 4 MiB line cap must
// survive a close/reopen cycle instead of failing the whole store.
func TestStoreLoadsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.jsonl")
	store, err := OpenStore(path)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	big := Record{
		Key:   "huge",
		Label: strings.Repeat("x", 5<<20), // > 4 MiB on one JSONL line
		Result: stats.RunRecord{
			Runs: 1, Cycles: 10, Packets: 1, EnergyPJ: 1,
		},
	}
	if err := store.Append(big); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := store.Append(Record{Key: "after", Result: stats.RunRecord{Runs: 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	store.Close()

	re, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got, ok := re.Lookup("huge")
	if !ok || len(got.Label) != 5<<20 {
		t.Fatalf("oversized record not reloaded (found=%v, label %d bytes)", ok, len(got.Label))
	}
	if _, ok := re.Lookup("after"); !ok {
		t.Error("record after the oversized one lost")
	}
}

// TestStoreRejectsMidFileCorruption: an unparseable line that is NOT
// the torn tail of the file is real corruption and must fail the open
// loudly instead of silently dropping records.
func TestStoreRejectsMidFileCorruption(t *testing.T) {
	good := `{"key":"k1","result":{"runs":1,"cycles":2,"packets":3,"net_latency_sum":0,"total_latency_sum":0,"flit_cycles":0,"payload_cycles":0,"cs_frac_packets":0,"config_frac_packets":0,"energy_pj":1}}`
	for name, content := range map[string]string{
		"corrupt middle":        good + "\n" + `{"key":"k2","resu` + "\n" + good,
		"corrupt last complete": good + "\n" + `{"key":"k2","resu` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "corrupt.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenStore(path)
		if err == nil {
			store.Close()
			t.Errorf("%s: OpenStore accepted a corrupt store", name)
		}
	}
}

// TestCheckedCampaignRunsClean runs a real (small) simulation job with
// the invariant layer on: it must complete without violations and the
// engine counter must stay zero.
func TestCheckedCampaignRunsClean(t *testing.T) {
	s := Spec{
		Modes: []string{"tdm"}, Patterns: []string{"tornado"},
		Meshes: []MeshSize{{4, 4}}, Rates: []float64{0.1}, Seeds: []uint64{1},
		WarmupCycles: 200, MeasureCycles: 400,
		CheckInvariants: true,
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Config.CheckInvariants {
		t.Fatal("spec did not propagate CheckInvariants to the job config")
	}
	eng := New(Options{Workers: 1})
	recs := eng.Run(context.Background(), jobs)
	if recs[0].Err != "" {
		t.Fatalf("checked job failed: %s", recs[0].Err)
	}
	if st := eng.Status(); st.Violations != 0 {
		t.Fatalf("clean run counted %d violations", st.Violations)
	}
}

// TestEngineCountsViolations: a job failing with *hsnoc.ViolationError
// must feed the engine's violation counter (and /metrics).
func TestEngineCountsViolations(t *testing.T) {
	bad := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		return stats.RunRecord{}, nil, &hsnoc.ViolationError{Count: 5, Violations: []hsnoc.Violation{
			{Cycle: 3, Router: 1, Kind: "credit", Detail: "seeded"},
		}}
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	eng := New(Options{Workers: 1, Runner: bad})
	recs := eng.Run(context.Background(), []Job{NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "bad")})
	if recs[0].Err == "" || !strings.Contains(recs[0].Err, "invariant violation") {
		t.Errorf("violation not reported in record: %+v", recs[0])
	}
	if st := eng.Status(); st.Violations != 5 || st.Failed != 1 {
		t.Errorf("status = %+v, want 5 violations / 1 failed", st)
	}
}

// explodingTicker panics inside the executor worker pool.
type explodingTicker struct{}

func (explodingTicker) Tick(now sim.Cycle, phase sim.Phase) {
	if now == 2 && phase == sim.PhaseCompute {
		panic("ticker exploded")
	}
}

// TestEngineContainsExecutorWorkerPanic glues the two containment
// layers end to end: a Ticker panic on a pooled executor goroutine is
// re-raised on the job goroutine, where the engine's recover turns it
// into one failed record — the other job and the process survive.
func TestEngineContainsExecutorWorkerPanic(t *testing.T) {
	runner := func(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
		if j.Label == "boom" {
			clock := &sim.Clock{}
			ts := []sim.Ticker{explodingTicker{}, explodingTicker{}, explodingTicker{}, explodingTicker{}}
			e := sim.NewExecutor(clock, ts, 4)
			defer e.Close()
			e.Run(10)
		}
		return stats.RunRecord{Runs: 1, Packets: 1}, nil, nil
	}
	cfg := hsnoc.DefaultConfig(4, 4)
	jobs := []Job{
		NewJob(cfg, hsnoc.Tornado, 0.1, 0, 100, "boom"),
		NewJob(cfg, hsnoc.Tornado, 0.2, 0, 100, "fine"),
	}
	eng := New(Options{Workers: 2, Runner: runner})
	recs := eng.Run(context.Background(), jobs)
	if !strings.Contains(recs[0].Err, "panic") {
		t.Errorf("worker panic not contained to its job: %+v", recs[0])
	}
	if recs[1].Err != "" {
		t.Errorf("healthy job dragged down: %+v", recs[1])
	}
	if st := eng.Status(); st.Failed != 1 || st.Done != 1 {
		t.Errorf("status = %+v, want 1 failed / 1 done", st)
	}
}

func TestAggregateMergesSeeds(t *testing.T) {
	mk := func(seed uint64, packets int64) Record {
		return Record{
			Key: fmt.Sprintf("k%d", seed), Mode: "Hybrid-TDM", Pattern: "TOR",
			Width: 4, Height: 4, Rate: 0.1, Seed: seed,
			Result: stats.RunRecord{Runs: 1, Cycles: 100, Packets: packets, EnergyPJ: 10},
		}
	}
	recs := []Record{mk(1, 10), mk(2, 30), {Key: "bad", Err: "boom"}}
	agg := Aggregate(recs, GroupWithoutSeed)
	if len(agg) != 1 {
		t.Fatalf("groups = %d, want 1", len(agg))
	}
	for _, r := range agg {
		if r.Runs != 2 || r.Packets != 40 || r.EnergyPJ != 20 {
			t.Errorf("aggregate = %+v", r)
		}
	}
}

// TestRecordStableEncoding pins the persisted encoding: Cached must
// never leak into JSON, and a marshal/unmarshal round trip must be
// exact.
func TestRecordStableEncoding(t *testing.T) {
	cfg := hsnoc.DefaultConfig(4, 4)
	cfg.Mode = hsnoc.HybridTDM
	j := NewJob(cfg, hsnoc.Tornado, 0.1, 10, 20, "enc")
	r := newRecord(j)
	r.Result = stats.RunRecord{Runs: 1, Cycles: 20, Packets: 5, EnergyPJ: 123.456}
	r.Cached = true
	b1, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(b1, []byte("Cached")) || bytes.Contains(b1, []byte("cached")) {
		t.Error("runtime-only Cached field leaked into the persisted encoding")
	}
	var back Record
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back.Cached = true
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("encoding not stable across round trip:\n%s\n%s", b1, b2)
	}
}

// TestCampaignTelemetry: a spec with telemetry_every attaches per-job
// observability — records carry a deterministic Summary, jobs are
// re-keyed away from the plain campaign, and the engine aggregates the
// per-job digests for /metrics.
func TestCampaignTelemetry(t *testing.T) {
	spec := Spec{
		Modes:          []string{"tdm"},
		Patterns:       []string{"tornado"},
		Meshes:         []MeshSize{{Width: 4, Height: 4}},
		Rates:          []float64{0.15},
		WarmupCycles:   200,
		MeasureCycles:  1000,
		TelemetryEvery: 64,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	plain := spec
	plain.TelemetryEvery = 0
	pjobs, err := plain.Expand()
	if err != nil {
		t.Fatalf("expand plain: %v", err)
	}
	if jobs[0].Key == pjobs[0].Key {
		t.Error("telemetry job shares a cache key with the plain job")
	}
	if jobs[0].TelemetryEvery != 64 {
		t.Errorf("TelemetryEvery = %d, want 64", jobs[0].TelemetryEvery)
	}

	eng := New(Options{Workers: 1})
	recs := eng.Run(context.Background(), jobs)
	if recs[0].Err != "" {
		t.Fatalf("job failed: %s", recs[0].Err)
	}
	sum := recs[0].Telemetry
	if sum == nil {
		t.Fatal("record carries no telemetry summary")
	}
	if sum.Injected == 0 || sum.Ejected == 0 || sum.Events == 0 {
		t.Errorf("telemetry summary looks empty: %+v", sum)
	}
	if len(sum.Samples) == 0 {
		t.Error("telemetry summary has no time-series windows")
	}
	tl := eng.Telemetry()
	if tl.Jobs != 1 {
		t.Errorf("engine telemetry jobs = %d, want 1", tl.Jobs)
	}
	if tl.SetupCount != sum.SetupLatency.Total || tl.SlotSteals != sum.Steals {
		t.Errorf("engine aggregate %+v does not match job summary (setups %d, steals %d)",
			tl, sum.SetupLatency.Total, sum.Steals)
	}
	var bucketSum uint64
	for _, c := range tl.Buckets {
		bucketSum += c
	}
	if bucketSum != tl.SetupCount {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, tl.SetupCount)
	}
}

// TestCampaignTelemetryParallelSim: a telemetry campaign over a parallel
// simulator executor runs cleanly and its per-job summary is
// byte-identical to the serial-executor run — the sharded recorder's
// deterministic merge holds through the campaign layer.
func TestCampaignTelemetryParallelSim(t *testing.T) {
	run := func(simWorkers int) []byte {
		spec := Spec{
			Modes:          []string{"tdm"},
			Patterns:       []string{"tornado"},
			Meshes:         []MeshSize{{Width: 4, Height: 4}},
			Rates:          []float64{0.15},
			WarmupCycles:   200,
			MeasureCycles:  1000,
			TelemetryEvery: 64,
			SimWorkers:     simWorkers,
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatalf("expand (sim_workers=%d): %v", simWorkers, err)
		}
		eng := New(Options{Workers: 1})
		recs := eng.Run(context.Background(), jobs)
		if recs[0].Err != "" {
			t.Fatalf("job failed (sim_workers=%d): %s", simWorkers, recs[0].Err)
		}
		if recs[0].Telemetry == nil {
			t.Fatalf("record carries no telemetry summary (sim_workers=%d)", simWorkers)
		}
		b, err := json.Marshal(recs[0].Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, parallel := run(1), run(2)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("telemetry summaries diverge between sim_workers 1 and 2:\n %s\n %s", serial, parallel)
	}
}

// TestSpecTelemetryValidation: telemetry conflicts fail loudly at
// Normalize instead of producing per-job attach errors.
func TestSpecTelemetryValidation(t *testing.T) {
	base := Spec{
		Modes:    []string{"tdm"},
		Patterns: []string{"ur"},
		Rates:    []float64{0.1},
	}
	neg := base
	neg.TelemetryEvery = -1
	if err := neg.Normalize(); err == nil {
		t.Error("negative telemetry_every accepted")
	}
	// Telemetry under a parallel executor is supported (sharded recorder
	// with deterministic merge), so this combination must normalize.
	par := base
	par.TelemetryEvery = 64
	par.SimWorkers = 2
	if err := par.Normalize(); err != nil {
		t.Errorf("telemetry with sim_workers 2 rejected: %v", err)
	}
	sdm := base
	sdm.TelemetryEvery = 64
	sdm.Modes = []string{"sdm"}
	if err := sdm.Normalize(); err == nil {
		t.Error("telemetry with sdm mode accepted")
	}
}
