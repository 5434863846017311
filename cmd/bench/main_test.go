package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tdmnoc/hsnoc"
)

// TestMain lets the test binary stand in for the bench binary in the
// -cell subprocess that runCellIsolated starts.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-cell" {
		fatal(serveCell(os.Args[2], os.Stdout))
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinySpec is a scaled-down Fig. 4 configuration for schema tests: the
// shape of the output is independent of the window lengths.
var tinySpec = spec{
	Name: "smoke-tdm-tornado", Figure: "fig4",
	Width: 4, Height: 4,
	Mode: hsnoc.HybridTDM, Pattern: hsnoc.Tornado, Rate: 0.10,
}

// tinyRow is a 4x4 scaling row with a checked digest at workers {1, 2}.
var tinyRow = scalingRow{4, 4, 200, 100, []int{1, 2}, 100, false, true}

// TestReportJSONSchema drives the harness end to end on tiny windows and
// checks the emitted JSON document carries every field a downstream
// consumer (CI artifact diffing, EXPERIMENTS.md tables) keys on.
func TestReportJSONSchema(t *testing.T) {
	r := Report{
		Schema:     "tdmnoc-bench/v5",
		GoVersion:  "go-test",
		GOMAXPROCS: 1,
		Quick:      true,
		GeneratedA: "2000-01-01T00:00:00Z",
		Scenarios:  []Scenario{runCell(cell{Spec: tinySpec, Warmup: 200, Cycles: 100, AllocBudget: zeroAllocBudget}).Scenario},
		Traced:     []TracedScenario{measureTraced(tinySpec, 200, 100)},
		Parity:     []TracedParity{checkParity(tinySpec, 200, "")},
		Digests:    []DigestCheck{checkDigest(tinySpec, 200)},
		Scaling:    measureScaling([]scalingRow{tinyRow}, runCell),
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := doc["schema"]; got != "tdmnoc-bench/v5" {
		t.Fatalf("schema = %v, want tdmnoc-bench/v5", got)
	}
	for _, key := range []string{"go_version", "gomaxprocs", "quick", "generated_at", "scenarios", "traced", "traced_parity", "determinism", "scaling"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
		}
	}
	for _, key := range []string{"parallel", "large_mesh"} {
		if _, ok := doc[key]; ok {
			t.Errorf("report still carries the v4 key %q", key)
		}
	}

	scenarios, ok := doc["scenarios"].([]any)
	if !ok || len(scenarios) != 1 {
		t.Fatalf("scenarios = %v, want one entry", doc["scenarios"])
	}
	sc := scenarios[0].(map[string]any)
	for _, key := range []string{
		"name", "figure", "width", "height", "mode", "pattern", "rate",
		"warmup_cycles", "measured_cycles",
		"ns_per_cycle", "allocs_per_cycle", "bytes_per_cycle",
		"resident_bytes", "bytes_per_router", "hot_path_zero_alloc",
	} {
		if _, ok := sc[key]; !ok {
			t.Errorf("scenario missing key %q", key)
		}
	}
	if sc["mode"] != "hybrid-tdm" || sc["pattern"] != "tornado" {
		t.Errorf("scenario mode/pattern = %v/%v, want hybrid-tdm/tornado", sc["mode"], sc["pattern"])
	}
	if ns := sc["ns_per_cycle"].(float64); ns <= 0 {
		t.Errorf("ns_per_cycle = %v, want > 0", ns)
	}

	traced, ok := doc["traced"].([]any)
	if !ok || len(traced) != 1 {
		t.Fatalf("traced = %v, want one entry", doc["traced"])
	}
	tr := traced[0].(map[string]any)
	for _, key := range []string{
		"name", "telemetry_every", "profile", "kind_mask", "ring_sample",
		"ns_per_cycle", "baseline_ns_per_cycle",
		"overhead_fraction", "allocs_per_cycle", "events_per_cycle", "ring_drops",
		"traced_zero_alloc", "ring_capacity",
	} {
		if _, ok := tr[key]; !ok {
			t.Errorf("traced scenario missing key %q", key)
		}
	}
	if p := tr["profile"]; p != "flows" {
		t.Errorf("traced profile = %v, want %q", p, "flows")
	}
	if ev := tr["events_per_cycle"].(float64); ev <= 0 {
		t.Errorf("events_per_cycle = %v, want > 0 with the recorder attached", ev)
	}
	if drops := tr["ring_drops"].(float64); drops != 0 {
		t.Errorf("ring_drops = %v, want 0 — the traced ring is sized drop-free", drops)
	}

	parity, ok := doc["traced_parity"].([]any)
	if !ok || len(parity) != 1 {
		t.Fatalf("traced_parity = %v, want one entry", doc["traced_parity"])
	}
	pe := parity[0].(map[string]any)
	for _, key := range []string{"name", "cycles", "untraced_serial_digest", "points"} {
		if _, ok := pe[key]; !ok {
			t.Errorf("traced_parity entry missing key %q", key)
		}
	}
	points, ok := pe["points"].([]any)
	if !ok || len(points) != 3 {
		t.Fatalf("traced_parity points = %v, want the {1,4,8} worker matrix", pe["points"])
	}
	for i, raw := range points {
		pp := raw.(map[string]any)
		for _, key := range []string{"workers", "digest", "digest_match", "trace_match", "trace_bytes", "ring_drops", "invariants_ok"} {
			if _, ok := pp[key]; !ok {
				t.Errorf("parity point %d missing key %q", i, key)
			}
		}
		if pp["digest_match"] != true || pp["trace_match"] != true {
			t.Errorf("parity point %d: digest_match=%v trace_match=%v on the smoke config",
				i, pp["digest_match"], pp["trace_match"])
		}
		if drops := pp["ring_drops"].(float64); drops != 0 {
			t.Errorf("parity point %d dropped %v ring events", i, drops)
		}
	}

	digests, ok := doc["determinism"].([]any)
	if !ok || len(digests) != 1 {
		t.Fatalf("determinism = %v, want one entry", doc["determinism"])
	}
	d := digests[0].(map[string]any)
	for _, key := range []string{"name", "cycles", "serial_digest", "workers4_digest", "match", "invariants_ok", "check_interval"} {
		if _, ok := d[key]; !ok {
			t.Errorf("digest check missing key %q", key)
		}
	}

	if d["match"] != true {
		t.Errorf("serial digest %v != workers4 digest %v on the smoke config",
			d["serial_digest"], d["workers4_digest"])
	}
	if d["invariants_ok"] != true {
		t.Error("invariant violations on the smoke config")
	}

	scaling, ok := doc["scaling"].([]any)
	if !ok || len(scaling) != 2 {
		t.Fatalf("scaling = %v, want the {1,2} worker matrix", doc["scaling"])
	}
	for i, raw := range scaling {
		sp := raw.(map[string]any)
		for _, key := range []string{
			"name", "width", "height", "workers", "ns_per_cycle", "allocs_per_cycle",
			"resident_bytes", "bytes_per_router", "serial_ns_per_cycle", "speedup",
			"speedup_measurable", "alloc_budget", "digest", "digest_checked", "digest_match",
		} {
			if _, ok := sp[key]; !ok {
				t.Errorf("scaling point %d missing key %q", i, key)
			}
		}
		if sp["digest_checked"] != true || sp["digest_match"] != true {
			t.Errorf("scaling point %d: digest_checked=%v digest_match=%v on the smoke config",
				i, sp["digest_checked"], sp["digest_match"])
		}
		if b := sp["alloc_budget"].(float64); b != routerAllocBudget(16) {
			t.Errorf("scaling point %d: alloc_budget = %v, want %v", i, b, routerAllocBudget(16))
		}
	}
}

// TestStrictViolations pins the gate logic: every scenario — fig4 and
// fig6 alike — is gated on hot-path allocations, every digest pair on
// match + invariants.
func TestStrictViolations(t *testing.T) {
	ok := Report{
		Scenarios: []Scenario{
			{Name: "a", Figure: "fig4", HotPathZeroAlloc: true},
			{Name: "b", Figure: "fig6", HotPathZeroAlloc: true},
		},
		Traced:  []TracedScenario{{Name: "a", TracedZeroAlloc: true}},
		Digests: []DigestCheck{{Name: "a", Match: true, InvariantsOK: true}},
	}
	if v := strictViolations(ok); len(v) != 0 {
		t.Fatalf("clean report flagged: %v", v)
	}

	// A fig6 miniature allocating on the hot path now fails the gate
	// just like a fig4 one: the pools scale with mesh area.
	leaky := ok
	leaky.Scenarios = []Scenario{{Name: "b", Figure: "fig6", AllocsPerCycle: 0.25}}
	if v := strictViolations(leaky); len(v) != 1 {
		t.Fatalf("violations = %v, want the fig6 alloc entry", v)
	}

	bad := ok
	bad.Scenarios = []Scenario{{Name: "a", Figure: "fig4", AllocsPerCycle: 0.5}}
	bad.Traced = []TracedScenario{{Name: "a", AllocsPerCycle: 0.7, TracedZeroAlloc: false}}
	bad.Digests = []DigestCheck{{Name: "a", Match: false}}
	if v := strictViolations(bad); len(v) != 4 {
		t.Fatalf("violations = %v, want alloc + traced-alloc + mismatch + invariant entries", v)
	}
}

// TestStrictTracedGates pins the new traced-section gates: overhead
// beyond the tracing budget and any ring drop each fail -strict, and
// every parity point is gated on digest match, trace match, drops and
// invariants independently.
func TestStrictTracedGates(t *testing.T) {
	slow := Report{Traced: []TracedScenario{{Name: "a", OverheadFraction: 0.17, TracedZeroAlloc: true}}}
	if v := strictViolations(slow); len(v) != 1 {
		t.Fatalf("violations = %v, want the overhead entry", v)
	}
	droppy := Report{Traced: []TracedScenario{{Name: "a", RingDrops: 9, TracedZeroAlloc: true}}}
	if v := strictViolations(droppy); len(v) != 1 {
		t.Fatalf("violations = %v, want the ring-drops entry", v)
	}
	within := Report{Traced: []TracedScenario{{Name: "a", OverheadFraction: 0.09, TracedZeroAlloc: true}}}
	if v := strictViolations(within); len(v) != 0 {
		t.Fatalf("within-budget overhead flagged: %v", v)
	}

	cleanPt := ParityPoint{Workers: 4, DigestMatch: true, TraceMatch: true, InvariantsOK: true}
	clean := Report{Parity: []TracedParity{{Name: "p", Points: []ParityPoint{cleanPt}}}}
	if v := strictViolations(clean); len(v) != 0 {
		t.Fatalf("clean parity flagged: %v", v)
	}
	badPt := ParityPoint{Workers: 8, DigestMatch: false, TraceMatch: false, RingDrops: 3, InvariantsOK: false}
	broken := Report{Parity: []TracedParity{{Name: "p", Points: []ParityPoint{badPt}}}}
	if v := strictViolations(broken); len(v) != 4 {
		t.Fatalf("violations = %v, want digest + trace + drops + invariant entries", v)
	}
}

// scalingGateCase is one single-row scaling[] report and the number of
// strictViolations it must produce.
type scalingGateCase struct {
	name                  string
	width, workers        int
	speedup               float64
	cores, checked, match bool
	budget, allocs        float64
	want                  int
}

func checkScalingGates(t *testing.T, cases []scalingGateCase) {
	t.Helper()
	for _, c := range cases {
		p := ScalingPoint{
			Scenario: Scenario{Name: "s", Width: c.width, Height: c.width, AllocsPerCycle: c.allocs},
			Workers:  c.workers, Speedup: c.speedup, SpeedupMeasurable: c.cores,
			AllocBudget: c.budget, DigestChecked: c.checked, DigestMatch: c.match,
		}
		if v := strictViolations(Report{Scaling: []ScalingPoint{p}}); len(v) != c.want {
			t.Errorf("%s: violations = %v, want %d", c.name, v, c.want)
		}
	}
}

// TestStrictParallelGates pins the gate logic of the miniature-sized
// scaling rows (6x6 and 16x16, a checked run at every worker count):
// digest divergence fails; a sub-2x speedup at 4 workers fails only on
// the 16x16 mesh AND only when the machine has the cores; the 6x6 rows
// are alloc-gated at their budget and the 16x16 rows are not.
func TestStrictParallelGates(t *testing.T) {
	checkScalingGates(t, []scalingGateCase{
		{"16x16 w=4 at 2.4x", 16, 4, 2.4, true, true, true, 0, 0, 0},
		{"16x16 w=4 at 1.4x", 16, 4, 1.4, true, true, true, 0, 0, 1},
		{"16x16 w=4 at 1.4x without the cores", 16, 4, 1.4, false, true, true, 0, 0, 0},
		{"6x6 w=4 at 0.4x", 6, 4, 0.4, true, true, true, 0, 0, 0},
		{"16x16 w=2 digest diverged", 16, 2, 1.1, true, true, false, 0, 0, 1},
		{"6x6 within its 0.036 budget", 6, 2, 1, true, true, true, routerAllocBudget(36), 0.0065, 0},
		{"6x6 over its 0.036 budget", 6, 2, 1, true, true, true, routerAllocBudget(36), 0.05, 1},
		{"16x16 ungated at 8.2 allocs/cycle", 16, 1, 1, true, true, true, 0, 8.2, 0},
	})
}

// TestStrictLargeMeshGates pins the gate logic of the 32x32-and-larger
// scaling rows: each row fails above its per-router alloc budget; digest
// divergence fails only where a checked run actually ran (the bigger
// sizes record a serial digest but skip the per-worker matrix); the 2x
// speedup floor does not reach them.
func TestStrictLargeMeshGates(t *testing.T) {
	checkScalingGates(t, []scalingGateCase{
		{"32x32 w=4 below 2x", 32, 4, 1.2, true, true, true, 0, 0, 0},
		{"64x64 w=4 below 2x", 64, 4, 1.2, true, false, false, 0, 0, 0},
		{"32x32 w=1 clean", 32, 1, 1, true, true, true, routerAllocBudget(1024), 0.1, 0},
		{"64x64 w=8 without a checked run", 64, 8, 1, false, false, false, routerAllocBudget(4096), 0.1, 0},
		{"32x32 w=1 over budget", 32, 1, 1, true, true, true, zeroAllocBudget, 0.3, 1},
		{"32x32 w=8 digest diverged", 32, 8, 1, false, true, false, routerAllocBudget(1024), 0, 1},
	})
}

// TestBaselineViolations pins the -baseline regression gate: only
// Fig. 4 scenarios are gated, only beyond the allowed fraction, and
// scenarios absent from the baseline are ignored.
func TestBaselineViolations(t *testing.T) {
	base := Report{Scenarios: []Scenario{
		{Name: "a", Figure: "fig4", NsPerCycle: 1000},
		{Name: "b", Figure: "fig6", NsPerCycle: 1000},
	}}
	now := Report{Scenarios: []Scenario{
		{Name: "a", Figure: "fig4", NsPerCycle: 1100}, // +10%: within a 15% budget
		{Name: "b", Figure: "fig6", NsPerCycle: 9000}, // fig6 is informational
		{Name: "c", Figure: "fig4", NsPerCycle: 9000}, // not in baseline
	}}
	if v := baselineViolations(now, base, 0.15); len(v) != 0 {
		t.Fatalf("within-budget report flagged: %v", v)
	}
	now.Scenarios[0].NsPerCycle = 1200 // +20%
	v := baselineViolations(now, base, 0.15)
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly the fig4 regression", v)
	}
}

// TestBaselineFromCommittedReport loads the committed v3 BENCH_PR8.json
// the way -baseline does and compares a v5 report against it: every
// miniature must find its baseline row, and only the Fig. 4 rows gate.
func TestBaselineFromCommittedReport(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR8.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("BENCH_PR8.json no longer parses as a baseline: %v", err)
	}
	baseNs := map[string]float64{}
	for _, sc := range base.Scenarios {
		baseNs[sc.Name] = sc.NsPerCycle
	}
	now := Report{Schema: "tdmnoc-bench/v5"}
	for _, sp := range miniatures {
		ns := baseNs[sp.Name]
		if ns <= 0 {
			t.Fatalf("miniature %s has no baseline row in BENCH_PR8.json", sp.Name)
		}
		now.Scenarios = append(now.Scenarios, Scenario{Name: sp.Name, Figure: sp.Figure, NsPerCycle: 1.1 * ns})
	}
	if v := baselineViolations(now, base, 0.15); len(v) != 0 {
		t.Fatalf("+10%% flagged against a 15%% budget: %v", v)
	}
	for i := range now.Scenarios {
		now.Scenarios[i].NsPerCycle *= 2
	}
	if v := baselineViolations(now, base, 0.15); len(v) != 3 {
		t.Fatalf("violations = %v, want one per Fig. 4 miniature", v)
	}
}

// TestCellSubprocess runs a scaling cell through the real -cell
// subprocess path and checks that it reproduces the inline run.
func TestCellSubprocess(t *testing.T) {
	c := tinyRow.cell(2)
	iso, inline := runCellIsolated(c), runCell(c)
	if iso.Digest == "" || iso.Digest != inline.Digest || !iso.InvariantsOK {
		t.Fatalf("isolated digest %q (invariants ok %v) != inline %q", iso.Digest, iso.InvariantsOK, inline.Digest)
	}
	// Everything but the host-dependent measurements must round-trip.
	host := func(s Scenario) Scenario {
		s.NsPerCycle, s.AllocsPerCycle, s.BytesPerCycle, s.BytesPerRouter = 0, 0, 0, 0
		s.ResidentBytes, s.HotPathZeroAlloc = 0, false
		return s
	}
	if iso.Scenario.NsPerCycle <= 0 || host(iso.Scenario) != host(inline.Scenario) {
		t.Fatalf("isolated scenario %+v, inline %+v", iso.Scenario, inline.Scenario)
	}
}

// TestHotPathAllocationFree is the regression anchor for the tentpole:
// once a Fig. 4 simulator is past its warmup transient, stepping it
// allocates nothing. The run is deterministic (fixed seed, serial
// executor), so an exact zero here is stable, not flaky; the only
// allocations left in a long run are rare circuit-reconfiguration
// events, and the measured window below is chosen clear of them.
func TestHotPathAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup window too long for -short")
	}
	sp := spec{
		Name: "alloc-check", Figure: "fig4",
		Width: 6, Height: 6,
		Mode: hsnoc.HybridTDM, Pattern: hsnoc.Tornado, Rate: 0.20,
	}
	s := hsnoc.NewSynthetic(specConfig(sp), sp.Pattern, sp.Rate)
	defer s.Close()
	s.Warmup(40000)

	const window = 256
	avg := testing.AllocsPerRun(8, func() { s.Warmup(window) })
	if perCycle := avg / window; perCycle != 0 {
		t.Fatalf("steady-state hot path allocates: %.5f allocs/cycle (avg %.1f allocs per %d-cycle window)",
			perCycle, avg, window)
	}
}
