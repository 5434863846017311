package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"tdmnoc/hsnoc"
)

// TestMain hands child invocations to run: repetitions are started from
// os.Executable(), which under go test is this test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_TEST_CHILD") != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Setenv("PERFBENCH_TEST_CHILD", "1")
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsEmitted runs every workload of BENCHMARK.json on a tiny
// input, traced and untraced, and checks that the result line carries
// exactly the declared metrics with their units and passes its checks.
func TestMetricsEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w.Name, trace
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w, "-seed", "5", "-seconds", "1", "-trace", trace, "-tiny", "-root", ".."}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit code %d", code)
				}
				var res map[string]json.RawMessage
				if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
					t.Fatal(err)
				}
				if len(res) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", res)
				}
				var r result
				if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				wantUnits := want[0]
				if trace == "1" {
					wantUnits = want[1]
				}
				if len(r.Metrics) != len(wantUnits) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(wantUnits))
				}
				for name, unit := range wantUnits {
					m, ok := r.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
				}
				if trace == "1" {
					if c := r.Metrics["trace.coverage"].Value; c < 0.9 {
						t.Errorf("spans cover %.3f of the traced wall time, want >= 0.9", c)
					}
				} else if r.Metrics["wall_s"].Value <= 0 || r.Metrics["sim_cycles_per_s"].Value <= 0 {
					t.Errorf("non-positive host rates: %+v", r.Metrics)
				}
			})
		}
	}
}

func TestSpanAccounting(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "setup", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "campaign.Engine.Run", Start: 10 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "campaign.Simulate", Start: 12 * ms, End: 60 * ms},
		{ID: 5, Parent: 3, Name: "campaign.Simulate", Start: 20 * ms, End: 80 * ms},
		{ID: 6, Parent: 3, Name: "campaign.Simulate", Start: 82 * ms, End: 85 * ms},
	}
	if got := unionDur(children(spans, 3)); got != 71*ms {
		t.Errorf("union of runner spans = %v, want 71ms", got)
	}
	if got := selfDur(spans, spans[2]); got != 9*ms {
		t.Errorf("engine self time = %v, want 9ms", got)
	}
	if got := selfDur(spans, spans[0]); got != 10*ms {
		t.Errorf("root self time = %v, want 10ms", got)
	}
	if got := sumDur(named(spans, "campaign.Simulate")); got != 111*ms {
		t.Errorf("runner busy time = %v, want 111ms", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tdmnoc/internal/router.(*Router).Tick":        "router",
		"tdmnoc/internal/sim.(*phaseBarrier).await":    "sim",
		"tdmnoc/internal/network.(*NI).Tick.func1":     "network",
		"tdmnoc/internal/routing.XY":                   "other",
		"tdmnoc/hsnoc.NewSynthetic":                    "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/atomic.(*Uint32).Load":       "runtime",
		"encoding/json.(*encodeState).marshal":         "other",
		"tdmnoc/internal/campaign.(*Engine).Run.func1": "campaign",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReadCPUProfile profiles a real simulation and checks that the
// decoder attributes its samples to the simulator's modules and to the
// hsnoc call they ran under.
func TestReadCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	cfg := hsnoc.DefaultConfig(6, 6)
	cfg.Mode = hsnoc.HybridTDM
	s := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, 0.1)
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		s.Warmup(1000)
	}
	s.Close()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total <= 0 {
		t.Fatal("profile holds no samples")
	}
	var sum float64
	for _, v := range p.Module {
		sum += v
	}
	if diff := sum - p.Total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("module seconds sum to %v, profile total %v", sum, p.Total)
	}
	if p.Module["router"] <= 0 || p.Under["warmup"] <= 0 {
		t.Errorf("router %.2fs, under Warmup %.2fs: want both > 0", p.Module["router"], p.Under["warmup"])
	}
}
