package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tdmnoc/hsnoc"
	"tdmnoc/internal/campaign"
	"tdmnoc/internal/obs"
	"tdmnoc/internal/sim"
)

// sweepSpecs is the sweep-6x6 grid: modes {packet, sdm, tdm} x patterns
// {tornado, transpose, uniform} x two loads below every mode's knee.
// Path sharing and VC gating are TDM options that SDM configs reject,
// so TDM is its own spec.
func sweepSpecs(seed uint64, tiny bool) []campaign.Spec {
	warm, meas := 2000, 8000
	if tiny {
		warm, meas = 200, 800
	}
	base := campaign.Spec{
		Patterns: []string{"tornado", "transpose", "uniform"},
		Rates:    []float64{0.04, 0.08},
		Seeds:    []uint64{seed},

		WarmupCycles: warm, MeasureCycles: meas,
	}
	ps := base
	ps.Name, ps.Modes = "sweep-6x6-packet-sdm", []string{"packet", "sdm"}
	tdm := base
	tdm.Name, tdm.Modes = "sweep-6x6-tdm", []string{"tdm"}
	tdm.PathSharing, tdm.VCPowerGating = true, true
	return []campaign.Spec{ps, tdm}
}

// runSweep runs the grid through campaign.Engine with nproc workers and a
// fresh on-disk store.
func runSweep(c *repCtx) (repResult, error) {
	var r repResult
	c.start()
	setup := c.tr.begin("setup", c.root)
	var jobs []campaign.Job
	for _, sp := range sweepSpecs(c.seed, c.tiny) {
		js, err := sp.Expand()
		if err != nil {
			return r, err
		}
		jobs = append(jobs, js...)
	}
	open := c.tr.begin("campaign.OpenStore", setup)
	store, err := campaign.OpenStore(filepath.Join(c.dir, "sweep.jsonl"))
	c.tr.end(open)
	if err != nil {
		return r, err
	}
	c.tr.end(setup)
	r.SetupS = time.Since(c.t0).Seconds()

	run := c.tr.begin("campaign.Engine.Run", c.root)
	var calls atomic.Int64
	eng := campaign.New(campaign.Options{Workers: c.workers, Store: store, Runner: c.runner(run, &calls)})
	recs := eng.Run(context.Background(), jobs)
	c.tr.end(run)
	r.WallS = c.done()
	if err := store.Close(); err != nil {
		return r, err
	}

	var tot jobTotals
	for _, rec := range recs {
		r.Jobs++
		if rec.Err != "" {
			r.fail("%s: %s", rec.Label, rec.Err)
			continue
		}
		checkAccepted(&r, rec)
		tot.add(rec)
	}
	r.SimCycles, r.Flits, r.Model = tot.cycles, tot.flits, tot.model()
	if c.traced {
		c.layers["campaign.jobs_run"] = float64(calls.Load())
		c.layers["campaign.cache_hits"] = float64(eng.Status().CacheHits)
	}
	return r, nil
}

// meshRate is the mesh-64x64 offered load: below the knee of a 64x64
// Hybrid-TDM tornado (NOTES.md records the collapse at 0.20).
const meshRate = 0.02

// meshConfig is the mesh-64x64 simulation at the given worker count.
func meshConfig(seed uint64, tiny bool, workers int) (cfg hsnoc.Config, warm, meas int) {
	// The warmup covers circuit formation: the first ~1000 cycles of a
	// 64x64 tornado run are packet-switched while setups travel.
	size := 64
	warm, meas = 1500, 500
	if tiny {
		size, warm, meas = 16, 100, 300
	}
	cfg = hsnoc.DefaultConfig(size, size)
	cfg.Mode = hsnoc.HybridTDM
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg, warm, meas
}

// runMesh builds and runs one 64x64 Hybrid-TDM tornado simulation with
// nproc executor workers.
func runMesh(c *repCtx) (repResult, error) {
	var r repResult
	cfg, warm, meas := meshConfig(c.seed, c.tiny, c.workers)
	c.start()
	build := c.tr.begin("hsnoc.NewSynthetic", c.root)
	s := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, meshRate)
	c.tr.end(build)
	defer s.Close()
	r.SetupS = time.Since(c.t0).Seconds()
	if c.traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.layers["heap.bytes_per_router"] = float64(ms.HeapInuse) / float64(cfg.Width*cfg.Height)
	}
	id := c.tr.begin("hsnoc.Warmup", c.root)
	s.Warmup(warm)
	c.tr.end(id)
	id = c.tr.begin("hsnoc.Run", c.root)
	res := s.Run(meas)
	c.tr.end(id)
	r.WallS = c.done()

	r.Jobs = 1
	r.Digest = s.StateDigest()
	var tot jobTotals
	tot.add(campaign.Record{
		Width: cfg.Width, Height: cfg.Height, Warmup: warm, Measure: meas,
		Result: campaign.FromResults(res),
	})
	r.SimCycles, r.Flits, r.Model = tot.cycles, tot.flits, tot.model()
	// Sum in component order: float sums must not depend on map order.
	comps := make([]string, 0, len(res.Energy.StaticPJ))
	for comp := range res.Energy.StaticPJ {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	var static float64
	for _, comp := range comps {
		static += res.Energy.StaticPJ[comp]
	}
	r.Model["power.static_fraction"] = ratio(static, res.Energy.TotalPJ)
	r.Model["hybrid.stolen_slots"] = float64(s.Diagnose().StolenSlots)
	if got := res.PayloadThroughput; got < 0.9*meshRate {
		r.fail("%dx%d tornado accepted %.4f flits/node/cycle of %.4f offered", cfg.Width, cfg.Height, got, meshRate)
	}
	if c.traced {
		c.layers["sim.barrier_ns_per_step"] = barrierProbe(cfg.Width, cfg.Height, c.workers)
	}
	return r, nil
}

// meshSerialDigest runs the mesh-64x64 simulation at Workers=1 to the
// cycle the measured repetitions end at.
func meshSerialDigest(o options) (uint64, error) {
	cfg, warm, meas := meshConfig(o.seed, o.tiny, 1)
	s := hsnoc.NewSynthetic(cfg, hsnoc.Tornado, meshRate)
	defer s.Close()
	s.Warmup(warm)
	s.Run(meas)
	return s.StateDigest(), nil
}

type noopTicker struct{}

func (noopTicker) Tick(sim.Cycle, sim.Phase) {}

// barrierProbe estimates the parallel executor's per-step barrier cost:
// no-op tickers laid out like a width x height network (a router and an
// NI per tile) in the block partition at the given worker count, stepped
// in parallel, minus a serial step's ticking divided among the workers.
// The two are timed alternately and the medians compared.
func barrierProbe(width, height, workers int) float64 {
	if workers < 2 {
		return 0
	}
	tickers := make([]sim.Ticker, 2*width*height)
	for i := range tickers {
		tickers[i] = noopTicker{}
	}
	var spans []sim.Span
	at := 0
	for _, p := range (sim.BlockPartitioner{}).Partition(width, height, workers) {
		spans = append(spans, sim.Span{Lo: at, Hi: at + 2*len(p)})
		at += 2 * len(p)
	}
	par := sim.NewExecutorSpans(&sim.Clock{}, tickers, spans)
	defer par.Close()
	ser := sim.NewExecutorSpans(&sim.Clock{}, tickers, nil)
	defer ser.Close()
	const steps, trials = 1000, 7
	perStep := func(e *sim.Executor) float64 {
		t := time.Now()
		e.Run(steps)
		return float64(time.Since(t).Nanoseconds()) / steps
	}
	var parNs, serNs []float64
	for i := 0; i < trials; i++ {
		parNs = append(parNs, perStep(par))
		serNs = append(serNs, perStep(ser))
	}
	return median(parNs) - median(serNs)/float64(workers)
}

// policyScenarios are the committed policy specs the policy-loop
// workload re-seeds.
var policyScenarios = []string{"fig4_policy.json", "fig6_policy.json"}

// loadPolicySpecs reads the scenarios from the checkout and applies the
// workload seed to every grid point.
func loadPolicySpecs(o options) ([]campaign.Spec, error) {
	var specs []campaign.Spec
	for _, name := range policyScenarios {
		f, err := os.Open(filepath.Join(o.root, "scenarios", name))
		if err != nil {
			return nil, err
		}
		sp, err := campaign.ParseSpec(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sp.Seeds = []uint64{o.seed}
		if o.tiny {
			sp.WarmupCycles, sp.MeasureCycles = 200, 800
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// policyStores are one scenario's record and profile stores.
type policyStores struct {
	records  *campaign.Store
	profiles *campaign.ProfileStore
}

// openPolicyStores opens (or reopens) every scenario's stores under dir.
func (c *repCtx) openPolicyStores(parent, n int) ([]policyStores, error) {
	out := make([]policyStores, n)
	for i := range out {
		id := c.tr.begin("campaign.OpenStore", parent)
		st, err := campaign.OpenStore(filepath.Join(c.dir, fmt.Sprintf("records-%d.jsonl", i)))
		c.tr.end(id)
		if err != nil {
			closePolicyStores(out[:i])
			return nil, err
		}
		id = c.tr.begin("campaign.OpenProfileStore", parent)
		ps, err := campaign.OpenProfileStore(filepath.Join(c.dir, fmt.Sprintf("profiles-%d.jsonl", i)))
		c.tr.end(id)
		if err != nil {
			st.Close()
			closePolicyStores(out[:i])
			return nil, err
		}
		out[i] = policyStores{st, ps}
	}
	return out, nil
}

func closePolicyStores(stores []policyStores) error {
	for _, s := range stores {
		if err := s.records.Close(); err != nil {
			return err
		}
		if err := s.profiles.Close(); err != nil {
			return err
		}
	}
	return nil
}

// policyPass is what one pass over the scenarios produced.
type policyPass struct {
	reports []*campaign.PolicyReport
	// records are the record stores' contents after the pass, in key
	// order so float sums over them do not depend on map order.
	records  []campaign.Record
	entries  int   // records and profiles in the stores after the pass
	replayed int   // records and profiles the stores held when opened
	calls    int64 // phase-B jobs the runner simulated
	hits     int64
	setupS   float64
}

// runPolicyPass opens the stores, runs every scenario's policy loop and
// closes the stores again.
func (c *repCtx) runPolicyPass(specs []campaign.Spec) (policyPass, error) {
	var p policyPass
	t := time.Now()
	setup := c.tr.begin("setup", c.root)
	stores, err := c.openPolicyStores(setup, len(specs))
	c.tr.end(setup)
	if err != nil {
		return p, err
	}
	p.setupS = time.Since(t).Seconds()
	for _, s := range stores {
		p.replayed += s.records.Len() + s.profiles.Len()
	}
	var calls atomic.Int64
	for i, sp := range specs {
		loop := c.tr.begin("campaign.RunPolicyLoop", c.root)
		eng := campaign.New(campaign.Options{Workers: c.workers, Store: stores[i].records, Runner: c.runner(loop, &calls)})
		rep, err := campaign.RunPolicyLoop(context.Background(), eng, sp, stores[i].profiles)
		c.tr.end(loop)
		if err != nil {
			closePolicyStores(stores)
			return p, err
		}
		p.reports = append(p.reports, rep)
		p.hits += eng.Status().CacheHits
	}
	p.calls = calls.Load()
	for _, s := range stores {
		p.entries += s.records.Len() + s.profiles.Len()
		p.records = append(p.records, s.records.Records()...)
	}
	sort.Slice(p.records, func(i, j int) bool { return p.records[i].Key < p.records[j].Key })
	id := c.tr.begin("campaign.Close", c.root)
	err = closePolicyStores(stores)
	c.tr.end(id)
	return p, err
}

// runPolicy runs the scenarios' profile-then-re-run loops on fresh
// stores, then reopens the stores for a second pass that must be served
// wholly from them.
func runPolicy(c *repCtx) (repResult, error) {
	var r repResult
	specs, err := loadPolicySpecs(c.options)
	if err != nil {
		return r, err
	}
	c.start()
	first, err := c.runPolicyPass(specs)
	if err != nil {
		return r, err
	}
	second, err := c.runPolicyPass(specs)
	if err != nil {
		return r, err
	}
	r.WallS = c.done()
	r.SetupS = first.setupS + second.setupS

	// Every record in the first pass's stores is one simulation: phase
	// A's profiling runs plus the phase-B jobs the store did not serve.
	var tot jobTotals
	for _, rec := range first.records {
		tot.add(rec)
	}
	r.SimCycles, r.Flits, r.Model = tot.cycles, tot.flits, tot.model()
	var greedy []float64
	for pass, p := range []policyPass{first, second} {
		for _, rep := range p.reports {
			for _, out := range rep.Outcomes {
				r.Jobs++
				if out.Err != "" {
					r.fail("pass %d %s/%s: %s", pass+1, out.Label, out.Policy, out.Err)
				}
				if pass == 0 && out.Policy == "greedy" {
					greedy = append(greedy, out.EnergyDeltaPct)
				}
			}
		}
	}
	if len(greedy) > 0 {
		var sum float64
		for _, d := range greedy {
			sum += d
		}
		r.Model["policy.energy_delta_pct"] = sum / float64(len(greedy))
	}
	if second.calls != 0 || second.entries != first.entries {
		r.fail("second pass simulated %d phase-B jobs and grew the stores from %d to %d entries", second.calls, first.entries, second.entries)
	}
	if !reflect.DeepEqual(first.reports, second.reports) {
		r.fail("second pass report differs from the first")
	}
	if c.traced {
		c.layers["campaign.jobs_run"] = float64(tot.jobs)
		c.layers["campaign.cache_hits"] = float64(first.hits + second.hits)
		c.layers["campaign.store_records"] = float64(first.replayed + second.replayed)
		events, drops, err := profileTelemetry(specs)
		if err != nil {
			return r, err
		}
		c.layers["obs.events"], c.layers["obs.ring_drops"] = events, drops
	}
	return r, nil
}

// profileTelemetry counts the events and ring drops of the telemetry the
// policy loop's phase A attaches, by re-running every grid point with
// the recorder campaign.SimulateProfile uses. The loop discards its
// recorders, so this is the only way to read them; it runs after the
// timed region.
func profileTelemetry(specs []campaign.Spec) (events, drops float64, err error) {
	for _, sp := range specs {
		jobs, err := sp.Expand()
		if err != nil {
			return 0, 0, err
		}
		for _, j := range jobs {
			s := hsnoc.NewSynthetic(j.Config, j.Pattern, j.Rate)
			rec, err := s.AttachTelemetry(hsnoc.TelemetryOptions{
				Every:        sp.PolicyProfile.ProfileEvery,
				RingCapacity: 1 << 12,
				RingSample:   1 << 10,
				KindMask:     obs.ProfileFlows,
				TrackFlows:   true,
			})
			if err != nil {
				s.Close()
				return 0, 0, err
			}
			s.Warmup(j.Warmup)
			s.Run(j.Measure)
			s.Close()
			sum := rec.Summary()
			events += float64(sum.Events)
			drops += float64(sum.RingDrops)
		}
	}
	return events, drops, nil
}
