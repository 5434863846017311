package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// workload is one benchmark workload.
type workload struct {
	// rep runs one repetition in this process. It calls c.start before
	// its first timed call and c.done after its last, and runs its
	// output checks after c.done.
	rep func(c *repCtx) (repResult, error)
	// serialDigest, when set, returns the end-state digest of the
	// workload's simulation run at Workers=1; the parent compares it with
	// the digest every repetition reports.
	serialDigest func(o options) (uint64, error)
}

var workloads = map[string]workload{
	"sweep-6x6":   {rep: runSweep},
	"mesh-64x64":  {rep: runMesh, serialDigest: meshSerialDigest},
	"policy-loop": {rep: runPolicy},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repCtx is one repetition's context. With tracing on it holds the span
// tracer, the CPU profile and the memory statistics around the timed
// region, and the ledger entries only the workload can fill in.
type repCtx struct {
	options
	workers int
	tr      *tracer
	layers  map[string]float64

	t0     time.Time
	root   int
	prof   *os.File
	m0, m1 runtime.MemStats
	err    error
}

// start opens the timed region.
func (c *repCtx) start() {
	if c.traced {
		runtime.ReadMemStats(&c.m0)
		f, err := os.Create(filepath.Join(c.dir, "cpu.pprof"))
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		c.prof, c.err = f, err
	}
	c.t0 = time.Now()
	c.root = c.tr.begin("rep", 0)
}

// done closes the timed region and returns its wall time in seconds.
func (c *repCtx) done() float64 {
	wall := time.Since(c.t0).Seconds()
	c.tr.end(c.root)
	if c.traced && c.prof != nil {
		pprof.StopCPUProfile()
		if err := c.prof.Close(); err != nil && c.err == nil {
			c.err = err
		}
		runtime.ReadMemStats(&c.m1)
	}
	return wall
}

// runner wraps campaign.Simulate in a "campaign.Simulate" span under
// parent and counts the jobs it simulates.
func (c *repCtx) runner(parent int, calls *atomic.Int64) campaign.Runner {
	return func(ctx context.Context, j campaign.Job) (stats.RunRecord, *obs.Summary, error) {
		calls.Add(1)
		id := c.tr.begin("campaign.Simulate", parent)
		defer c.tr.end(id)
		return campaign.Simulate(ctx, j)
	}
}

// runRep runs one repetition and, when traced, builds its ledger from
// the spans, the CPU profile and the memory statistics.
func runRep(o options, w workload) (repResult, error) {
	c := &repCtx{options: o, workers: runtime.NumCPU()}
	if o.traced {
		c.tr = newTracer()
		c.layers = map[string]float64{}
	}
	r, err := w.rep(c)
	if err == nil {
		err = c.err
	}
	if err != nil || !o.traced {
		return r, err
	}
	spans := c.tr.snapshot()
	if err := writeSpans(filepath.Join(o.dir, "spans.json"), spans); err != nil {
		return r, err
	}
	prof, err := readCPUProfile(filepath.Join(o.dir, "cpu.pprof"))
	if err != nil {
		return r, err
	}
	L := c.layers
	for _, m := range cpuModules {
		L["cpu."+m+"_s"] = prof.Module[m]
	}
	// The hsnoc calls are timed by their spans where the benchmark makes
	// them itself; inside campaign.Simulate (serial jobs, so CPU time is
	// busy time) they are read from the profile.
	for _, e := range []struct{ span, layer, under string }{
		{"hsnoc.NewSynthetic", "hsnoc.build_s", "build"},
		{"hsnoc.Warmup", "hsnoc.warmup_s", "warmup"},
		{"hsnoc.Run", "hsnoc.run_s", "run"},
	} {
		if ss := named(spans, e.span); len(ss) > 0 {
			L[e.layer] = sumDur(ss).Seconds()
		} else {
			L[e.layer] = prof.Under[e.under]
		}
	}
	cycles := float64(r.SimCycles)
	L["hsnoc.ns_per_cycle"] = ratio((L["hsnoc.warmup_s"]+L["hsnoc.run_s"])*1e9, cycles)
	L["hsnoc.ns_per_flit"] = ratio(L["hsnoc.run_s"]*1e9, r.Flits)
	L["alloc.per_cycle"] = ratio(float64(c.m1.Mallocs-c.m0.Mallocs), cycles)
	L["alloc.bytes_per_cycle"] = ratio(float64(c.m1.TotalAlloc-c.m0.TotalAlloc), cycles)
	L["gc.cycles"] = float64(c.m1.NumGC - c.m0.NumGC)
	L["gc.pause_s"] = float64(c.m1.PauseTotalNs-c.m0.PauseTotalNs) / 1e9
	for _, run := range named(spans, "campaign.Engine.Run") {
		kids := children(spans, run.ID)
		L["campaign.self_s"] += (run.dur() - unionDur(kids)).Seconds()
		L["campaign.worker_idle_s"] += (time.Duration(c.workers)*run.dur() - sumDur(kids)).Seconds()
	}
	L["campaign.store_open_s"] = (sumDur(named(spans, "campaign.OpenStore")) + sumDur(named(spans, "campaign.OpenProfileStore"))).Seconds()
	// Phase A of a policy loop runs until its first phase-B job reaches
	// the runner; a loop whose phase B is served wholly from the store
	// never reaches it and counts as phase A throughout.
	for _, loop := range named(spans, "campaign.RunPolicyLoop") {
		kids := children(spans, loop.ID)
		if len(kids) == 0 {
			L["policy.phase_a_s"] += loop.dur().Seconds()
			continue
		}
		first := kids[0].Start
		for _, k := range kids {
			first = min(first, k.Start)
		}
		L["policy.phase_a_s"] += (first - loop.Start).Seconds()
		L["policy.phase_b_s"] += (loop.End - first).Seconds()
	}
	if roots := named(spans, "rep"); len(roots) == 1 && roots[0].dur() > 0 {
		L["trace.coverage"] = 1 - float64(selfDur(spans, roots[0]))/float64(roots[0].dur())
	}
	r.Layers = L
	return r, nil
}

// jobTotals sums simulated results over job records.
type jobTotals struct {
	jobs      int
	cycles    int64
	packets   int64
	flits     float64
	latSum    float64
	thrSum    float64
	energy    float64
	csSum     float64
	cfgSum    float64
	circuits  int64
	shares    int64
	maxActive int
}

func (t *jobTotals) add(r campaign.Record) {
	res := r.Result
	t.jobs++
	t.cycles += int64(r.Warmup + r.Measure)
	t.packets += res.Packets
	t.flits += res.FlitCycles * float64(r.Width*r.Height)
	t.latSum += res.NetLatencySum
	t.thrSum += res.Throughput()
	t.energy += res.EnergyPJ
	t.csSum += res.CSFracPackets
	t.cfgSum += res.ConfigFracPackets
	t.circuits += res.Circuits
	t.shares += res.Hitchhikes + res.VicinityRides
	t.maxActive = max(t.maxActive, res.ActiveSlots)
}

// model reports the totals as sim_* metrics and modelled component
// counts: latency packet-weighted, throughput the mean over jobs, energy
// per delivered flit.
func (t *jobTotals) model() map[string]float64 {
	pk := float64(t.packets)
	return map[string]float64{
		"sim_latency_cycles":             ratio(t.latSum, pk),
		"sim_throughput":                 ratio(t.thrSum, float64(t.jobs)),
		"sim_energy_pj_per_flit":         ratio(t.energy, t.flits),
		"router.flits_ejected":           t.flits,
		"ni.packets_ejected":             pk,
		"hybrid.cs_flit_fraction":        ratio(t.csSum, pk),
		"hybrid.circuits":                float64(t.circuits),
		"hybrid.config_traffic_fraction": ratio(t.cfgSum, pk),
		"hybrid.path_shares":             float64(t.shares),
		"hybrid.active_slot_entries":     float64(t.maxActive),
		"power.energy_pj":                t.energy,
	}
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sendingShare is the share of a width x height mesh's nodes that have a
// destination under the named pattern (a transpose node on the diagonal
// would send to itself, so it sends nothing).
func sendingShare(pattern string, width, height int) float64 {
	if pattern == hsnoc.Transpose.String() {
		return float64(width*height-min(width, height)) / float64(width*height)
	}
	return 1
}

// checkAccepted fails a below-knee job whose accepted payload load falls
// under 90% of what its sending nodes offer: a jammed network must not
// pass as a fast one.
func checkAccepted(r *repResult, rec campaign.Record) {
	offered := rec.Rate * sendingShare(rec.Pattern, rec.Width, rec.Height)
	if got := rec.Result.PayloadThroughput(); got < 0.9*offered {
		r.fail("%s accepted %.4f flits/node/cycle of %.4f offered", rec.Label, got, offered)
	}
}
