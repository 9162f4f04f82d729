package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/splash"
	"repro/internal/workstation"
)

// outcome is what one pass produced: the rendered output the correctness
// gate compares, how many cells ran and failed, and how many simulated
// cycles they covered.
type outcome struct {
	text   string
	cells  int
	failed int
	cycles int64
	err    error
}

// instance is a workload set up for one seed.
type instance interface {
	// pass runs the workload once through the public entry point the
	// repository's own drivers call.
	pass() outcome
	// tracedPass runs the same cells by calling each layer's per-cell
	// function directly, with a span around every call, and renders the
	// same output from the results.
	tracedPass(tr *tracer) outcome
	// want is the output every pass must render at seed 1, cut from the
	// committed results; it is empty at other seeds.
	want() string
}

type workload struct {
	name  string
	setup func(seed int64, golden string) (instance, error)
}

var workloads = []workload{
	{"uni-grid", setupUniGrid},
	{"mp-grid", setupMPGrid},
	{"mp-stall", setupMPStall},
	{"sweep-fork", setupSweepFork},
}

// tracer keeps the spans of one traced pass in memory, with the
// simulated counts the spanned calls returned. A span's duration is the
// process CPU time the call used, which leaves out time the host did not
// run the process.
type tracer struct {
	spans []span
	stats core.Stats
}

type span struct {
	layer  string
	cpu    time.Duration
	cycles int64
}

// start marks the beginning of a span.
func (t *tracer) start() time.Duration { return cpuTime() }

func (t *tracer) record(layer string, start time.Duration, cycles int64) {
	t.spans = append(t.spans, span{layer, cpuTime() - start, cycles})
}

// goldenBlock cuts the text from the line starting with from up to the
// line starting with to out of the committed results.
func goldenBlock(golden, from, to string) (string, error) {
	i := strings.Index(golden, "\n"+from)
	if i < 0 {
		return "", fmt.Errorf("golden file has no %q section", from)
	}
	rest := golden[i+1:]
	j := strings.Index(rest, "\n"+to)
	if j < 0 {
		return "", fmt.Errorf("golden file has no %q section", to)
	}
	return rest[:j+1], nil
}

// buildKernels builds every kernel's program once, as the workstation
// does before its first cycle, so set-up time covers input construction.
func buildKernels(ks []apps.Kernel) {
	for i, k := range ks {
		k.Build(apps.Options{
			CodeBase:     0x0100_0000 * uint32(i+1),
			DataBase:     0x4000_0000 + 0x0200_0000*uint32(i),
			Yield:        prog.YieldBackoff,
			AutoTolerate: true,
		})
	}
}

// rotationCycles is the simulated length of one scheduler rotation of a
// workstation cell; a cell runs a fixed number of rotations, warm-up and
// measurement together.
func rotationCycles(w workstation.Config, kernels int) int64 {
	groups := (kernels + w.Contexts - 1) / w.Contexts
	return int64(groups*w.OS.AffinitySlices*w.Contexts) * w.OS.SliceCycles
}

func uniCellCycles(w workstation.Config, kernels int) int64 {
	return int64(w.WarmupRotations+w.MeasureRotations) * rotationCycles(w, kernels)
}

// ---- uni-grid: Table 7 and Figures 6-7 ----

type uniGrid struct {
	cfg     experiments.UniConfig
	kernels map[string][]apps.Kernel
	golden  string
	gap     float64 // paperGap of the last public pass
}

func setupUniGrid(seed int64, golden string) (instance, error) {
	u := &uniGrid{cfg: experiments.DefaultUniConfig(), kernels: map[string][]apps.Kernel{}}
	u.cfg.Seed = seed
	u.cfg.Parallelism = 1
	for _, w := range experiments.WorkloadOrder {
		ks, err := experiments.ResolveWorkload(w)
		if err != nil {
			return nil, err
		}
		buildKernels(ks)
		u.kernels[w] = ks
	}
	if seed == 1 {
		block, err := goldenBlock(golden, "Table 7:", "Table 10:")
		if err != nil {
			return nil, err
		}
		u.golden = block
	}
	return u, nil
}

func (u *uniGrid) want() string { return u.golden }

// specs lists the grid's cells in the canonical order the experiments
// package indexes them by: per workload the single-context baseline,
// then each scheme at each context count.
func (u *uniGrid) specs() []workstation.Config {
	var out []workstation.Config
	for range experiments.WorkloadOrder {
		add := func(s core.Scheme, n int) {
			c := workstation.DefaultConfig(s, n)
			c.OS.SliceCycles = u.cfg.SliceCycles
			c.WarmupRotations = u.cfg.WarmupRotations
			c.MeasureRotations = u.cfg.MeasureRotations
			c.Seed = experiments.DeriveSeed(u.cfg.Seed, len(out))
			out = append(out, c)
		}
		add(core.Single, 1)
		for _, s := range u.cfg.Schemes {
			for _, n := range u.cfg.ContextCounts {
				add(s, n)
			}
		}
	}
	return out
}

func (u *uniGrid) cycles(specs []workstation.Config) int64 {
	var total int64
	per := len(specs) / len(experiments.WorkloadOrder)
	for i, c := range specs {
		total += uniCellCycles(c, len(u.kernels[experiments.WorkloadOrder[i/per]]))
	}
	return total
}

func (u *uniGrid) pass() outcome {
	specs := u.specs()
	o := outcome{cells: len(specs), cycles: u.cycles(specs)}
	res, err := experiments.RunUniprocessor(u.cfg)
	if err != nil {
		o.err, o.failed = err, o.cells
		return o
	}
	o.text = experiments.RenderUniSections(experiments.Selection(nil), res)
	o.failed = res.Failures + res.Skipped
	u.gap = paperGap(res)
	return o
}

func (u *uniGrid) tracedPass(tr *tracer) outcome {
	specs := u.specs()
	o := outcome{cells: len(specs), cycles: u.cycles(specs)}
	per := len(specs) / len(experiments.WorkloadOrder)
	recs := make([]*experiments.UniCellRecord, len(specs))
	for i, c := range specs {
		ks := u.kernels[experiments.WorkloadOrder[i/per]]
		t0 := tr.start()
		r, err := workstation.RunCtx(context.Background(), ks, c)
		tr.record("workstation", t0, uniCellCycles(c, len(ks)))
		if err != nil {
			recs[i] = &experiments.UniCellRecord{Failed: true, Failure: err.Error()}
			continue
		}
		tr.stats.Add(&r.Stats)
		recs[i] = &experiments.UniCellRecord{Result: r}
	}
	res, err := experiments.AssembleUni(u.cfg, recs)
	if err != nil {
		o.err, o.failed = err, o.cells
		return o
	}
	o.text = experiments.RenderUniSections(experiments.Selection(nil), res)
	o.failed = res.Failures + res.Skipped
	return o
}

// paperGap is the mean absolute difference between the four Table 7 mean
// gains of a grid and the paper's (interleaved 1.22/1.50, blocked
// 1.03/1.11 at two/four contexts).
func paperGap(res *experiments.UniResult) float64 {
	paper := []struct {
		s    core.Scheme
		n    int
		gain float64
	}{{core.Interleaved, 2, 1.22}, {core.Blocked, 2, 1.03}, {core.Interleaved, 4, 1.50}, {core.Blocked, 4, 1.11}}
	var sum float64
	for _, p := range paper {
		d := res.MeanGain(p.s, p.n) - p.gain
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(paper))
}

// ---- mp-grid: Table 10 and Figures 8-9 ----

type mpGrid struct {
	cfg    experiments.MPConfig
	cells  []mpCell
	golden string
}

type mpCell struct {
	cfg  mp.Config
	prog *prog.Program
}

func setupMPGrid(seed int64, golden string) (instance, error) {
	m := &mpGrid{cfg: experiments.DefaultMPConfig()}
	m.cfg.Seed = seed
	m.cfg.Parallelism = 1
	for _, name := range experiments.MPAppOrder {
		app, err := splash.Lookup(name)
		if err != nil {
			return nil, err
		}
		add := func(s core.Scheme, n int) {
			c := mp.DefaultConfig(s, n)
			c.Processors = m.cfg.Processors
			c.LimitCycles = m.cfg.LimitCycles
			c.Coherence.Seed = experiments.DeriveSeed(m.cfg.Seed, len(m.cells))
			p := app.Build(splash.Options{
				CodeBase:     0x0100_0000,
				DataBase:     0x5000_0000,
				Yield:        workstation.YieldModeFor(s),
				AutoTolerate: s != core.Single,
				NumThreads:   m.cfg.Processors * n,
				Steps:        m.cfg.Steps,
				Scale:        m.cfg.Scale,
			})
			m.cells = append(m.cells, mpCell{c, p})
		}
		add(core.Single, 1)
		for _, s := range m.cfg.Schemes {
			for _, n := range m.cfg.ContextCounts {
				add(s, n)
			}
		}
	}
	if seed == 1 {
		block, err := goldenBlock(golden, "Table 10:", "Ablations:")
		if err != nil {
			return nil, err
		}
		m.golden = block
	}
	return m, nil
}

func (m *mpGrid) want() string { return m.golden }

func (m *mpGrid) pass() outcome {
	o := outcome{cells: len(m.cells)}
	res, err := experiments.RunMultiprocessor(m.cfg)
	if err != nil {
		o.err, o.failed = err, o.cells
		return o
	}
	for _, c := range res.Cells {
		o.cycles += c.Cycles
	}
	o.text = experiments.RenderMPSections(experiments.Selection(nil), res)
	o.failed = res.Failures + res.Skipped
	return o
}

func (m *mpGrid) tracedPass(tr *tracer) outcome {
	o := outcome{cells: len(m.cells)}
	recs := make([]*experiments.MPCellRecord, len(m.cells))
	for i, c := range m.cells {
		t0 := tr.start()
		r, err := mp.RunCtx(context.Background(), c.prog, c.cfg)
		if err == nil && !r.Completed {
			err = fmt.Errorf("%v/%d exceeded the cycle limit", c.cfg.Scheme, c.cfg.Contexts)
		}
		if err != nil {
			tr.record("mp", t0, 0)
			recs[i] = &experiments.MPCellRecord{Failed: true, Failure: err.Error()}
			continue
		}
		tr.record("mp", t0, r.Cycles)
		tr.stats.Add(&r.Stats)
		o.cycles += r.Cycles
		recs[i] = &experiments.MPCellRecord{Cycles: r.Cycles, Completed: r.Completed, Stats: r.Stats,
			Threads: r.Threads, MemHash: r.MemHash, ArchHash: r.ArchHash}
	}
	res, err := experiments.AssembleMP(m.cfg, recs)
	if err != nil {
		o.err, o.failed = err, o.cells
		return o
	}
	o.text = experiments.RenderMPSections(experiments.Selection(nil), res)
	o.failed = res.Failures + res.Skipped
	return o
}

// ---- mp-stall: the streaming-miss kernel on 8 processors ----

// stallCells are the six multiprocessor cells of the streaming-miss
// kernel, with the cycles and final-memory digest each must reach at
// seed 1. The kernel only ever stores sums of the zeros it loads, so the
// final memory is all zeros and every digest is that of empty memory.
var stallCells = []struct {
	scheme   core.Scheme
	contexts int
	cycles   int64
	memHash  uint64
}{
	{core.Single, 1, 3116257, 0xcbf29ce484222325},
	{core.Blocked, 1, 5673128, 0xcbf29ce484222325},
	{core.Blocked, 2, 2858713, 0xcbf29ce484222325},
	{core.Blocked, 4, 1460327, 0xcbf29ce484222325},
	{core.Interleaved, 2, 2849824, 0xcbf29ce484222325},
	{core.Interleaved, 4, 1437151, 0xcbf29ce484222325},
}

// stallProgram is the streaming-miss kernel: each thread sweeps a private
// 128 KiB region at line stride — twice the node cache — loading and then
// dirtying every line, for the given number of passes. Every pass
// thrashes, so nearly all issue slots are memory or switch stalls.
func stallProgram(passes, threads int) *prog.Program {
	b := prog.NewBuilder("stall", 0x1000, 0x4000_0000, 1<<23)
	b.SetYield(prog.YieldBackoff)
	arr := b.Alloc(uint32(threads)*(128<<10), 64)
	res := b.Alloc(uint32(4*threads), 64)
	b.La(isa.R1, arr)
	b.Sll(isa.R11, mp.TidReg, 17) // tid * 128 KiB
	b.Add(isa.R1, isa.R1, isa.R11)
	b.Li(isa.R2, uint32(passes))
	b.Li(isa.R7, 0)
	b.Label("pass")
	b.Move(isa.R3, isa.R1)
	b.Li(isa.R6, (128<<10)/64)
	b.Label("loop")
	b.Lw(isa.R8, isa.R3, 0)
	b.Add(isa.R7, isa.R7, isa.R8)
	b.Sw(isa.R7, isa.R3, 32) // dirty the line: ownership traffic
	b.Addi(isa.R3, isa.R3, 64)
	b.Addi(isa.R6, isa.R6, -1)
	b.Bgtz(isa.R6, "loop")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bgtz(isa.R2, "pass")
	b.Sll(isa.R11, mp.TidReg, 2)
	b.La(isa.R10, res)
	b.Add(isa.R10, isa.R10, isa.R11)
	b.Sw(isa.R7, isa.R10, 0)
	b.Halt()
	return b.MustBuild()
}

type mpStall struct {
	cells  []mpCell
	golden string
}

func setupMPStall(seed int64, _ string) (instance, error) {
	s := &mpStall{}
	var want strings.Builder
	for _, sc := range stallCells {
		c := mp.DefaultConfig(sc.scheme, sc.contexts)
		c.LimitCycles = 500_000_000
		c.Coherence.Seed = seed
		// Fewer contexts finish a sweep in far fewer machine cycles, so
		// the pass count shrinks with the context count.
		p := stallProgram(16/sc.contexts, c.Processors*sc.contexts)
		s.cells = append(s.cells, mpCell{c, p})
		fmt.Fprintf(&want, "%v/%d cycles=%d memhash=%016x\n", sc.scheme, sc.contexts, sc.cycles, sc.memHash)
	}
	if seed == 1 {
		s.golden = want.String()
	}
	return s, nil
}

func (s *mpStall) want() string { return s.golden }

func (s *mpStall) pass() outcome { return s.run(nil) }

func (s *mpStall) tracedPass(tr *tracer) outcome { return s.run(tr) }

func (s *mpStall) run(tr *tracer) outcome {
	o := outcome{cells: len(s.cells)}
	var text strings.Builder
	for _, c := range s.cells {
		t0 := cpuTime()
		r, err := mp.RunCtx(context.Background(), c.prog, c.cfg)
		if err != nil || !r.Completed {
			o.failed++
			fmt.Fprintf(&text, "%v/%d did not complete: %v\n", c.cfg.Scheme, c.cfg.Contexts, err)
			continue
		}
		if tr != nil {
			tr.record("mp", t0, r.Cycles)
			tr.stats.Add(&r.Stats)
		}
		o.cycles += r.Cycles
		fmt.Fprintf(&text, "%v/%d cycles=%d memhash=%016x\n", c.cfg.Scheme, c.cfg.Contexts, r.Cycles, r.MemHash)
	}
	o.text = text.String()
	return o
}

// ---- sweep-fork: switch-cost and MSHR sweeps with warm-up forking ----

type sweepFork struct {
	cfg     experiments.UniConfig
	kernels []apps.Kernel
	sweeps  []sweepSpec
	golden  string
}

// sweepSpec is one sensitivity sweep as the experiments package builds
// it: a single-context baseline run from scratch, a group of cells that
// differ only in a measurement-time override and so fork from one shared
// warm-up checkpoint, and optionally a reference cell run from scratch.
type sweepSpec struct {
	public   func(experiments.UniConfig, string) (*experiments.SweepResult, error)
	base     workstation.Config
	group    []workstation.Config
	ref      *workstation.Config
	render   func(thr []float64) *experiments.SweepResult
	groupKey string
}

func setupSweepFork(seed int64, golden string) (instance, error) {
	f := &sweepFork{cfg: experiments.DefaultUniConfig()}
	f.cfg.Seed = seed
	f.cfg.Parallelism = 1
	ks, err := experiments.ResolveWorkload("DC")
	if err != nil {
		return nil, err
	}
	buildKernels(ks)
	f.kernels = ks
	mk := func(s core.Scheme, n int) workstation.Config {
		w := workstation.DefaultConfig(s, n)
		w.OS.SliceCycles = f.cfg.SliceCycles
		w.WarmupRotations = f.cfg.WarmupRotations
		w.MeasureRotations = f.cfg.MeasureRotations
		w.Seed = f.cfg.Seed
		return w
	}

	costs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sc := sweepSpec{public: experiments.SwitchCostSweep, base: mk(core.Single, 1), groupKey: "switch-cost"}
	for _, c := range costs {
		w := mk(core.Blocked, 4)
		w.Measure.BlockedFlushCost = c
		sc.group = append(sc.group, w)
	}
	ref := mk(core.Interleaved, 4)
	sc.ref = &ref
	sc.render = func(thr []float64) *experiments.SweepResult {
		r := &experiments.SweepResult{
			Name:   "blocked switch cost on DC (4 contexts)",
			XLabel: "flush cost (cycles)",
			Series: map[string][]experiments.SweepPoint{},
		}
		for i, c := range costs {
			r.Series["blocked"] = append(r.Series["blocked"], experiments.SweepPoint{
				X: float64(c), Label: fmt.Sprint(c), Gain: thr[1+i] / thr[0]})
		}
		r.Series["interleaved (reference)"] = []experiments.SweepPoint{{X: 7, Label: "7", Gain: thr[len(thr)-1] / thr[0]}}
		return r
	}

	mshrs := []int{1, 2, 4, 8}
	ms := sweepSpec{public: experiments.MSHRSweep, base: mk(core.Single, 1), groupKey: "mshr"}
	for _, m := range mshrs {
		w := mk(core.Interleaved, 4)
		w.Measure.MSHRs = m
		ms.group = append(ms.group, w)
	}
	ms.render = func(thr []float64) *experiments.SweepResult {
		r := &experiments.SweepResult{
			Name:   "miss registers on DC (interleaved, 4 contexts)",
			XLabel: "MSHRs",
			Series: map[string][]experiments.SweepPoint{},
		}
		for i, m := range mshrs {
			r.Series["interleaved"] = append(r.Series["interleaved"], experiments.SweepPoint{
				X: float64(m), Label: fmt.Sprint(m), Gain: thr[1+i] / thr[0]})
		}
		return r
	}
	f.sweeps = []sweepSpec{sc, ms}

	if seed == 1 {
		for _, b := range [][2]string{
			{"Sweep: blocked switch cost", "Sweep: context count"},
			{"Sweep: miss registers", "Sweep: remote latency"},
		} {
			block, err := goldenBlock(golden, b[0], b[1])
			if err != nil {
				return nil, err
			}
			f.golden += block
		}
	}
	return f, nil
}

func (f *sweepFork) want() string { return f.golden }

// configs lists a sweep's cells in the order the experiments package
// runs them: baseline, group, reference.
func (s *sweepSpec) configs() []workstation.Config {
	out := append([]workstation.Config{s.base}, s.group...)
	if s.ref != nil {
		out = append(out, *s.ref)
	}
	return out
}

func (f *sweepFork) shape() (cells int, cycles int64) {
	for _, s := range f.sweeps {
		for _, c := range s.configs() {
			cells++
			cycles += uniCellCycles(c, len(f.kernels))
		}
	}
	return cells, cycles
}

func (f *sweepFork) pass() outcome {
	o := outcome{}
	o.cells, o.cycles = f.shape()
	var text strings.Builder
	for _, s := range f.sweeps {
		r, err := s.public(f.cfg, "DC")
		if err != nil {
			o.err, o.failed = err, o.cells
			return o
		}
		text.WriteString(experiments.FormatSweep(r) + "\n\n") // as cmd/experiments prints it
	}
	o.text = text.String()
	return o
}

func (f *sweepFork) tracedPass(tr *tracer) outcome {
	o := outcome{}
	o.cells, o.cycles = f.shape()
	ctx := context.Background()
	var text strings.Builder
	for _, s := range f.sweeps {
		prefix := s.group[0]
		prefix.Measure = workstation.MeasureOverrides{}
		rot := rotationCycles(prefix, len(f.kernels))
		t0 := tr.start()
		ckpt, err := workstation.CheckpointWarmupCtx(ctx, f.kernels, prefix, s.groupKey)
		tr.record("snapshot", t0, int64(prefix.WarmupRotations)*rot)
		if err != nil {
			o.err, o.failed = err, o.cells
			return o
		}
		var thr []float64
		for i, c := range s.configs() {
			t0 := tr.start()
			var r *workstation.Result
			cycles := uniCellCycles(c, len(f.kernels))
			if i >= 1 && i <= len(s.group) {
				r, err = workstation.ResumeCtx(ctx, f.kernels, c, ckpt, s.groupKey)
				cycles = int64(c.MeasureRotations) * rot
			} else {
				r, err = workstation.RunCtx(ctx, f.kernels, c)
			}
			tr.record("workstation", t0, cycles)
			if err != nil {
				o.err, o.failed = err, o.cells
				return o
			}
			tr.stats.Add(&r.Stats)
			thr = append(thr, r.FairThroughput)
		}
		text.WriteString(experiments.FormatSweep(s.render(thr)) + "\n\n")
	}
	o.text = text.String()
	return o
}
