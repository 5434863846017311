// Command perfbench is the repository benchmark. It runs one workload —
// sweep-6x6, mesh-64x64 or policy-loop (see NOTES.md) — as repeated
// repetitions, each in a fresh child process, for a fixed wall-clock
// budget, checks every output, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -root .. -workload sweep-6x6 -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (medians over untraced
// repetitions). With -trace 1 it alternates untraced and traced
// repetitions and reports the per-layer ledger: span self times, a CPU
// profile split by module, allocation and GC counters, modelled
// component counts, and the traced-minus-untraced wall time.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with -trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"sim_flits_per_s", "flits/s"},
	{"jobs_per_s", "jobs/s"},
	{"max_rss_bytes", "bytes"},
	{"sim_latency_cycles", "cycles"},
	{"sim_throughput", "flits/node/cycle"},
	{"sim_energy_pj_per_flit", "pJ/flit"},
}

// perLayer is the ledger reported with -trace 1. Metrics of a layer a
// workload bypasses read 0.
var perLayer = []metricDef{
	{"campaign.self_s", "s"},
	{"campaign.worker_idle_s", "s"},
	{"campaign.jobs_run", "count"},
	{"campaign.cache_hits", "count"},
	{"campaign.store_open_s", "s"},
	{"campaign.store_records", "count"},
	{"hsnoc.build_s", "s"},
	{"hsnoc.warmup_s", "s"},
	{"hsnoc.run_s", "s"},
	{"hsnoc.ns_per_cycle", "ns/cycle"},
	{"hsnoc.ns_per_flit", "ns/flit"},
	{"sim.barrier_ns_per_step", "ns/step"},
	{"alloc.per_cycle", "allocs/cycle"},
	{"alloc.bytes_per_cycle", "bytes/cycle"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"heap.bytes_per_router", "bytes/router"},
	{"router.flits_ejected", "flits"},
	{"ni.packets_ejected", "packets"},
	{"hybrid.cs_flit_fraction", "ratio"},
	{"hybrid.circuits", "count"},
	{"hybrid.config_traffic_fraction", "ratio"},
	{"hybrid.path_shares", "count"},
	{"hybrid.stolen_slots", "count"},
	{"hybrid.active_slot_entries", "entries"},
	{"power.energy_pj", "pJ"},
	{"power.static_fraction", "ratio"},
	{"obs.events", "count"},
	{"obs.ring_drops", "count"},
	{"policy.phase_a_s", "s"},
	{"policy.phase_b_s", "s"},
	{"policy.energy_delta_pct", "%"},
	{"cpu.router_s", "s"},
	{"cpu.network_s", "s"},
	{"cpu.hybrid_s", "s"},
	{"cpu.sdm_s", "s"},
	{"cpu.power_s", "s"},
	{"cpu.flit_s", "s"},
	{"cpu.traffic_s", "s"},
	{"cpu.invariant_s", "s"},
	{"cpu.campaign_s", "s"},
	{"cpu.sim_s", "s"},
	{"cpu.obs_s", "s"},
	{"cpu.policy_s", "s"},
	{"cpu.runtime_s", "s"},
	{"cpu.other_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "ratio"},
	{"failed_ratio", "ratio"},
}

// options are the command-line settings shared by the parent and the
// child processes it starts.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	tiny     bool
	child    string
	dir      string
	traced   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args and runs the benchmark (or, with -child, one child
// task), writing results to stdout. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; applied to every generated simulation config")
	fs.IntVar(&o.seconds, "seconds", 30, "wall-clock budget for starting repetitions")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer ledger")
	fs.StringVar(&o.root, "root", "..", "repository checkout root (scenario specs are read from it; run files go under .bench_build)")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload (smoke tests)")
	fs.StringVar(&o.child, "child", "", "internal: run one child task (rep|digest) and print its JSON")
	fs.StringVar(&o.dir, "dir", "", "internal: the child's scratch directory")
	fs.BoolVar(&o.traced, "traced", false, "internal: trace the child's repetition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (%s)\n", o.workload, strings.Join(workloadNames(), "|"))
		return 2
	}
	if o.trace != 0 && o.trace != 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	var out any
	var err error
	switch o.child {
	case "":
		var lb labels
		out, lb, err = runBench(o, w)
		if err == nil {
			b, merr := json.Marshal(map[string]labels{"labels": lb})
			if merr != nil {
				err = merr
			}
			fmt.Fprintln(stdout, string(b))
		}
	case "rep":
		out, err = runRep(o, w)
	case "digest":
		if w.serialDigest == nil {
			err = fmt.Errorf("workload %s has no digest task", o.workload)
		} else {
			var d uint64
			d, err = w.serialDigest(o)
			out = map[string]uint64{"digest": d}
		}
	default:
		err = fmt.Errorf("unknown child task %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// repResult is what one repetition reports back to the parent.
type repResult struct {
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	// Jobs counts the jobs the repetition attempted; Failed those that
	// returned an error or failed an output check (Failures says why).
	Jobs     int      `json:"jobs"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// SimCycles are simulated cycles (warmup + measure, summed over
	// simulated jobs); Flits the flits delivered in measured windows.
	SimCycles int64   `json:"sim_cycles"`
	Flits     float64 `json:"flits"`
	// Model holds the simulated results: the sim_* metrics and the
	// modelled component counts. They are a function of the seed alone,
	// so every repetition of a run must report the same values.
	Model  map[string]float64 `json:"model"`
	Digest uint64             `json:"digest,omitempty"`
	// Layers is the per-layer ledger of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
	// MaxRSS is the child's peak resident set, filled in by the parent.
	MaxRSS int64 `json:"max_rss_bytes"`
}

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// labels describe the host and the run; they precede the result line.
type labels struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Untraced   int    `json:"reps_untraced"`
	Traced     int    `json:"reps_traced"`
}

// runBench is the parent: it starts repetitions until the budget is
// spent (alternating untraced and traced ones with -trace 1), runs the
// workload's cross-repetition checks, and aggregates the metrics.
func runBench(o options, w workload) (result, labels, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, labels{}, err
	}
	base := filepath.Join(o.root, ".bench_build", "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return result{}, labels{}, err
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var untraced, traced []repResult
	// Start repetitions until the budget is spent and there is at least
	// one of each kind the run reports on.
	for rep := 0; time.Since(start) < budget || len(untraced) == 0 || (o.trace == 1 && len(traced) == 0); rep++ {
		co := o
		co.traced = o.trace == 1 && rep%2 == 1
		co.dir = filepath.Join(base, fmt.Sprintf("rep%03d", rep))
		r, err := runChild(exe, co)
		if err != nil {
			return result{}, labels{}, fmt.Errorf("repetition %d: %w", rep, err)
		}
		if co.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	all := append(append([]repResult(nil), untraced...), traced...)
	res := result{Metrics: map[string]metric{}}
	var failures []string
	for _, r := range all {
		res.Attempted += r.Jobs
		res.Failed += r.Failed
		failures = append(failures, r.Failures...)
	}
	// Simulated results depend on the seed only: every repetition must
	// agree exactly, traced or not.
	for i, r := range all[1:] {
		if !reflect.DeepEqual(r.Model, all[0].Model) || r.Digest != all[0].Digest {
			res.Failed++
			failures = append(failures, fmt.Sprintf("repetition %d simulated results differ from repetition 0", i+1))
		}
	}
	if w.serialDigest != nil {
		d, err := childDigest(exe, o)
		if err != nil {
			return result{}, labels{}, err
		}
		if d != all[0].Digest {
			res.Failed++
			failures = append(failures, fmt.Sprintf("end-state digest %#x at Workers=%d differs from %#x at Workers=1", all[0].Digest, runtime.NumCPU(), d))
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = res.Failed == 0
	if o.trace == 0 {
		fill(res.Metrics, endToEnd, endToEndValues(untraced))
	} else {
		v := layerValues(traced)
		v["trace.overhead_s"] = median(field(traced, wallOf)) - median(field(untraced, wallOf))
		v["failed_ratio"] = float64(res.Failed) / math.Max(1, float64(res.Attempted))
		fill(res.Metrics, perLayer, v)
	}
	lb := labels{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Untraced: len(untraced), Traced: len(traced),
	}
	report, err := json.MarshalIndent(map[string]any{"labels": lb, "result": res, "failures": failures, "repetitions": all}, "", "  ")
	if err != nil {
		return result{}, labels{}, err
	}
	return res, lb, os.WriteFile(filepath.Join(base, "report.json"), report, 0o644)
}

// runChild runs one repetition in a fresh process and reads back its
// result and peak resident set.
func runChild(exe string, o options) (repResult, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return repResult{}, err
	}
	out, st, err := execChild(exe, o, "rep")
	if err != nil {
		return repResult{}, err
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return repResult{}, fmt.Errorf("child output: %w", err)
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSS = ru.Maxrss * 1024 // kilobytes on Linux
	}
	return r, nil
}

// childDigest runs the workload's serial reference in a fresh process.
func childDigest(exe string, o options) (uint64, error) {
	out, _, err := execChild(exe, o, "digest")
	if err != nil {
		return 0, err
	}
	var d map[string]uint64
	if err := json.Unmarshal(out, &d); err != nil {
		return 0, fmt.Errorf("digest child output: %w", err)
	}
	return d["digest"], nil
}

// execChild starts the benchmark binary on one child task, waits for it
// and returns the last line of its standard output.
func execChild(exe string, o options, task string) ([]byte, *os.ProcessState, error) {
	args := []string{"-child", task, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-root", o.root, "-dir", o.dir, "-traced=" + strconv.FormatBool(o.traced), "-tiny=" + strconv.FormatBool(o.tiny)}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("child %s: %w", task, err)
	}
	return lastLine(stdout.Bytes()), cmd.ProcessState, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func wallOf(r repResult) float64 { return r.WallS }

func field(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndValues are the medians over untraced repetitions.
func endToEndValues(reps []repResult) map[string]float64 {
	v := map[string]float64{
		"wall_s":           median(field(reps, wallOf)),
		"setup_s":          median(field(reps, func(r repResult) float64 { return r.SetupS })),
		"sim_cycles_per_s": median(field(reps, func(r repResult) float64 { return float64(r.SimCycles) / r.WallS })),
		"sim_flits_per_s":  median(field(reps, func(r repResult) float64 { return r.Flits / r.WallS })),
		"jobs_per_s":       median(field(reps, func(r repResult) float64 { return float64(r.Jobs) / r.WallS })),
		"max_rss_bytes":    median(field(reps, func(r repResult) float64 { return float64(r.MaxRSS) })),
	}
	for _, m := range []string{"sim_latency_cycles", "sim_throughput", "sim_energy_pj_per_flit"} {
		v[m] = reps[0].Model[m]
	}
	return v
}

// layerValues are the medians over traced repetitions of every ledger
// entry, plus the modelled component counts.
func layerValues(reps []repResult) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		if x, ok := reps[0].Model[m.name]; ok {
			v[m.name] = x
			continue
		}
		name := m.name
		v[name] = median(field(reps, func(r repResult) float64 { return r.Layers[name] }))
	}
	return v
}

// fill copies the defined metrics, with their units, from values; a
// metric without a value is reported as 0.
func fill(dst map[string]metric, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		dst[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuModel reads the host CPU model for the report labels.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
