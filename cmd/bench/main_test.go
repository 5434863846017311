package main

import (
	"encoding/json"
	"testing"

	"tdmnoc/hsnoc"
)

// tinySpec is a scaled-down Fig. 4 configuration for schema tests: the
// shape of the output is independent of the window lengths.
var tinySpec = spec{
	name: "smoke-tdm-tornado", figure: "fig4",
	width: 4, height: 4,
	mode: hsnoc.HybridTDM, pattern: hsnoc.Tornado, rate: 0.10,
}

// TestReportJSONSchema drives the harness end to end on tiny windows and
// checks the emitted JSON document carries every field a downstream
// consumer (CI artifact diffing, EXPERIMENTS.md tables) keys on.
func TestReportJSONSchema(t *testing.T) {
	r := Report{
		Schema:     "tdmnoc-bench/v4",
		GoVersion:  "go-test",
		GOMAXPROCS: 1,
		Quick:      true,
		GeneratedA: "2000-01-01T00:00:00Z",
		Scenarios:  []Scenario{measure(tinySpec, 200, 100)},
		Traced:     []TracedScenario{measureTraced(tinySpec, 200, 100)},
		Parity:     []TracedParity{checkParity(tinySpec, 200, "")},
		Digests:    []DigestCheck{checkDigest(tinySpec, 200)},
		LargeMesh:  measureLargeMesh([]largeMeshSize{{4, 4, 200, 100, 100, true}}, []int{1, 2}),
		Parallel: []ParallelPoint{{
			Name: "smoke-scale", Width: 4, Height: 4, Workers: 2,
			NsPerCycle: 1, SerialNs: 2, Speedup: 2,
			DigestMatch: true, SpeedupMeasurable: true,
		}},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := doc["schema"]; got != "tdmnoc-bench/v4" {
		t.Fatalf("schema = %v, want tdmnoc-bench/v4", got)
	}
	for _, key := range []string{"go_version", "gomaxprocs", "quick", "generated_at", "scenarios", "traced_parity", "determinism", "parallel", "large_mesh"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
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

	parallel, ok := doc["parallel"].([]any)
	if !ok || len(parallel) != 1 {
		t.Fatalf("parallel = %v, want one entry", doc["parallel"])
	}
	p := parallel[0].(map[string]any)
	for _, key := range []string{
		"name", "width", "height", "workers", "ns_per_cycle", "serial_ns_per_cycle",
		"speedup", "allocs_per_cycle", "digest_match", "speedup_measurable",
	} {
		if _, ok := p[key]; !ok {
			t.Errorf("parallel point missing key %q", key)
		}
	}
	if d["match"] != true {
		t.Errorf("serial digest %v != workers4 digest %v on the smoke config",
			d["serial_digest"], d["workers4_digest"])
	}
	if d["invariants_ok"] != true {
		t.Error("invariant violations on the smoke config")
	}

	largeMesh, ok := doc["large_mesh"].([]any)
	if !ok || len(largeMesh) != 2 {
		t.Fatalf("large_mesh = %v, want the {1,2} worker matrix", doc["large_mesh"])
	}
	for i, raw := range largeMesh {
		lp := raw.(map[string]any)
		for _, key := range []string{
			"name", "width", "height", "workers", "ns_per_cycle", "allocs_per_cycle",
			"resident_bytes", "bytes_per_router", "serial_ns_per_cycle", "speedup",
			"speedup_measurable", "digest_checked", "digest_match",
		} {
			if _, ok := lp[key]; !ok {
				t.Errorf("large-mesh point %d missing key %q", i, key)
			}
		}
		if lp["digest_checked"] != true || lp["digest_match"] != true {
			t.Errorf("large-mesh point %d: digest_checked=%v digest_match=%v on the smoke config",
				i, lp["digest_checked"], lp["digest_match"])
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

// TestStrictParallelGates pins the scaling-section gate logic: digest
// divergence always fails; a sub-2x speedup at 4 workers fails only on
// a 16x16-or-larger mesh AND only when the machine has the cores.
func TestStrictParallelGates(t *testing.T) {
	cases := []struct {
		p    ParallelPoint
		want int
	}{
		{ParallelPoint{Workers: 4, Width: 16, Speedup: 2.4, DigestMatch: true, SpeedupMeasurable: true}, 0},
		{ParallelPoint{Workers: 4, Width: 16, Speedup: 1.4, DigestMatch: true, SpeedupMeasurable: true}, 1},
		{ParallelPoint{Workers: 4, Width: 16, Speedup: 1.4, DigestMatch: true, SpeedupMeasurable: false}, 0},
		{ParallelPoint{Workers: 4, Width: 6, Speedup: 0.4, DigestMatch: true, SpeedupMeasurable: true}, 0},
		{ParallelPoint{Workers: 2, Width: 16, Speedup: 1.1, DigestMatch: false, SpeedupMeasurable: true}, 1},
	}
	for i, c := range cases {
		if v := strictViolations(Report{Parallel: []ParallelPoint{c.p}}); len(v) != c.want {
			t.Errorf("case %d: violations = %v, want %d", i, v, c.want)
		}
	}
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

// TestStrictLargeMeshGates pins the large-mesh gate logic: every point
// is gated on the zero-alloc budget; digest divergence fails only where
// a digest pass actually ran (the bigger sizes record a serial digest
// but skip the per-worker matrix).
func TestStrictLargeMeshGates(t *testing.T) {
	clean := Report{LargeMesh: []LargeMeshPoint{
		{Scenario: Scenario{Name: "a", HotPathZeroAlloc: true}, Workers: 1, DigestChecked: true, DigestMatch: true},
		{Scenario: Scenario{Name: "a", HotPathZeroAlloc: true}, Workers: 8},
	}}
	if v := strictViolations(clean); len(v) != 0 {
		t.Fatalf("clean large-mesh report flagged: %v", v)
	}
	bad := Report{LargeMesh: []LargeMeshPoint{
		{Scenario: Scenario{Name: "a", AllocsPerCycle: 0.3}, Workers: 1},
		{Scenario: Scenario{Name: "a", HotPathZeroAlloc: true}, Workers: 8, DigestChecked: true, DigestMatch: false},
	}}
	if v := strictViolations(bad); len(v) != 2 {
		t.Fatalf("violations = %v, want the alloc + digest entries", v)
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
		name: "alloc-check", figure: "fig4",
		width: 6, height: 6,
		mode: hsnoc.HybridTDM, pattern: hsnoc.Tornado, rate: 0.20,
	}
	s := hsnoc.NewSynthetic(specConfig(sp), sp.pattern, sp.rate)
	defer s.Close()
	s.Warmup(40000)

	const window = 256
	avg := testing.AllocsPerRun(8, func() { s.Warmup(window) })
	if perCycle := avg / window; perCycle != 0 {
		t.Fatalf("steady-state hot path allocates: %.5f allocs/cycle (avg %.1f allocs per %d-cycle window)",
			perCycle, avg, window)
	}
}
