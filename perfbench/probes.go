package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/mp"
	"repro/internal/prog"
	"repro/internal/snapshot"
	"repro/internal/splash"
	"repro/internal/workstation"
)

// The probes measure one layer at a time on fixed inputs. A processor
// runs over a forwarding memory system that counts and logs every call
// that changes memory-system state; the log is then replayed against a
// fresh copy of the memory system in a tight loop, which times the layer
// without a clock read per call (a clock read costs about as much as a
// cache access). Replay times the calls back to back, so the host caches
// are warmer than inside the simulation and the layer's share reads low
// rather than high.

// memCall is one logged memory-system call.
type memCall struct {
	addr, pc uint32
	now      int64
	node     uint8
	fetch    bool
	write    bool
}

// memLog is the call log the probes of one machine share, in call order.
type memLog struct {
	calls   []memCall
	classes [memsys.NumMissClasses]int64
	fetches int64
	digest  uint64
}

func (l *memLog) accesses() int64 {
	var n int64
	for _, c := range l.classes {
		n += c
	}
	return n
}

func mix(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

func digestData(h uint64, r memsys.DataResult) uint64 {
	hit := uint64(0)
	if r.Hit {
		hit = 1
	}
	return mix(mix(mix(h, hit|uint64(r.Class)<<1), uint64(r.ReadyAt)), uint64(r.FillAt))
}

func digestFetch(h uint64, ready int64, miss bool) uint64 {
	if miss {
		ready = ^ready
	}
	return mix(h, uint64(ready))
}

// completerSystem is what both of the repository's memory systems
// implement; core.NewProcessor looks for the Completer half by type
// assertion, so the probe must forward it.
type completerSystem interface {
	memsys.System
	memsys.Completer
}

// probeMem forwards every call to a memory system and logs the calls
// that change its state. It forwards memsys.Completer and
// memsys.IdealInstFetch too, which core.NewProcessor type-asserts:
// without them the processor would fast-forward differently.
type probeMem struct {
	inner   completerSystem
	node    uint8
	idealIF bool
	log     *memLog
}

func newProbeMem(inner completerSystem, node int, log *memLog) *probeMem {
	p := &probeMem{inner: inner, node: uint8(node), log: log}
	if f, ok := inner.(memsys.IdealInstFetch); ok {
		p.idealIF = f.InstFetchIsIdeal()
	}
	return p
}

func (p *probeMem) AccessData(addr uint32, write bool, pc uint32, now int64) memsys.DataResult {
	r := p.inner.AccessData(addr, write, pc, now)
	l := p.log
	l.calls = append(l.calls, memCall{addr: addr, pc: pc, now: now, node: p.node, write: write})
	l.classes[r.Class]++
	l.digest = digestData(l.digest, r)
	return r
}

func (p *probeMem) FetchInst(addr uint32, now int64) (int64, bool) {
	ready, miss := p.inner.FetchInst(addr, now)
	p.log.fetches++
	if !p.idealIF { // an ideal fetch is pure: nothing to replay
		p.log.calls = append(p.log.calls, memCall{addr: addr, now: now, node: p.node, fetch: true})
		p.log.digest = digestFetch(p.log.digest, ready, miss)
	}
	return ready, miss
}

func (p *probeMem) NextCompletion(now int64) int64 { return p.inner.NextCompletion(now) }
func (p *probeMem) PullBasedTiming() bool          { return p.inner.PullBasedTiming() }
func (p *probeMem) InstFetchIsIdeal() bool         { return p.idealIF }

// replay re-issues a log against fresh memory systems (indexed by node)
// and returns the CPU time it took and the digest of the results, which must
// equal the recorded one.
func replay(calls []memCall, systems []memsys.System) (time.Duration, uint64) {
	var h uint64
	t0 := cpuTime()
	for i := range calls {
		c := &calls[i]
		s := systems[c.node]
		if c.fetch {
			ready, miss := s.FetchInst(c.addr, c.now)
			h = digestFetch(h, ready, miss)
		} else {
			h = digestData(h, s.AccessData(c.addr, c.write, c.pc, c.now))
		}
	}
	return cpuTime() - t0, h
}

// uniProbe is the cache probe's machine: one processor running a Table 5
// workload's four kernels, one per context, over the workstation's cache
// hierarchy, with no OS scheduling.
type uniProbe struct {
	workload string
	scheme   core.Scheme
	cycles   int64
}

var cacheProbe = uniProbe{workload: "DC", scheme: core.Interleaved, cycles: 1_500_000}

// run simulates the probe and returns its statistics and the CPU time
// the simulation took; a non-nil log routes the hierarchy through a
// probeMem.
func (u uniProbe) run(log *memLog) (core.Stats, time.Duration, error) {
	kernels, err := experiments.ResolveWorkload(u.workload)
	if err != nil {
		return core.Stats{}, 0, err
	}
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		return core.Stats{}, 0, err
	}
	var sys memsys.System = h
	if log != nil {
		sys = newProbeMem(h, 0, log)
	}
	fm := mem.New()
	proc, err := core.NewProcessor(core.DefaultConfig(u.scheme, len(kernels)), sys, fm)
	if err != nil {
		return core.Stats{}, 0, err
	}
	yield := workstation.YieldModeFor(u.scheme)
	for i, k := range kernels {
		// The workstation's process placement (internal/workstation).
		p := k.Build(apps.Options{
			CodeBase:     0x0100_0000*uint32(i+1) + 0x4800*uint32(i),
			DataBase:     0x4000_0000 + 0x0200_0000*uint32(i) + 0x3800*uint32(i),
			Yield:        yield,
			AutoTolerate: yield != prog.YieldNone,
		})
		p.LoadInit(fm)
		proc.BindThread(i, core.NewThread(fmt.Sprintf("%s.%d", k.Name, i), p))
	}
	t0 := cpuTime()
	proc.Run(u.cycles)
	return proc.Stats, cpuTime() - t0, nil
}

// mpProbe is the coherence probe's machine: the processors of one
// multiprocessor cell over the coherence fabric, every processor stepped
// every cycle in (cycle, processor index) order with no fast-forward,
// until every thread halts.
type mpProbe struct {
	app      string
	scheme   core.Scheme
	contexts int
}

var coherenceProbe = mpProbe{app: "water", scheme: core.Interleaved, contexts: 2}

func (m mpProbe) config(seed int64) mp.Config {
	c := mp.DefaultConfig(m.scheme, m.contexts)
	c.Coherence.Seed = seed
	return c
}

func (m mpProbe) program(cfg mp.Config) (*prog.Program, error) {
	app, err := splash.Lookup(m.app)
	if err != nil {
		return nil, err
	}
	return app.Build(splash.Options{
		CodeBase:     0x0100_0000,
		DataBase:     0x5000_0000,
		Yield:        workstation.YieldModeFor(m.scheme),
		AutoTolerate: m.scheme != core.Single,
		NumThreads:   cfg.Processors * cfg.Contexts,
	}), nil
}

// run steps the machine to completion and returns its execution time in
// cycles (as mp.Result.Cycles counts it), its final memory digest and
// the CPU time the stepping took.
func (m mpProbe) run(p *prog.Program, cfg mp.Config, log *memLog) (cycles int64, memHash uint64, cpu time.Duration, err error) {
	fab, err := coherence.NewFabric(cfg.Coherence, cfg.Processors)
	if err != nil {
		return 0, 0, 0, err
	}
	fm := mem.New()
	p.LoadInit(fm)
	procs := make([]*core.Processor, cfg.Processors)
	var threads []*core.Thread
	nThreads := cfg.Processors * cfg.Contexts
	for i := range procs {
		var sys memsys.System = fab.Node(i)
		if log != nil {
			sys = newProbeMem(fab.Node(i), i, log)
		}
		proc, err := core.NewProcessor(core.DefaultConfig(cfg.Scheme, cfg.Contexts), sys, fm)
		if err != nil {
			return 0, 0, 0, err
		}
		proc.ID = i
		for c := 0; c < cfg.Contexts; c++ {
			tid := i*cfg.Contexts + c
			th := core.NewThread(fmt.Sprintf("%s.t%d", p.Name, tid), p)
			th.SetIntReg(mp.TidReg, uint32(tid))
			th.SetIntReg(mp.NThreadsReg, uint32(nThreads))
			proc.BindThread(c, th)
			threads = append(threads, th)
		}
		procs[i] = proc
	}
	halted := func() bool {
		for _, p := range procs {
			if !p.AllHalted() {
				return false
			}
		}
		return true
	}
	t0 := cpuTime()
	for now := int64(0); !halted(); now++ {
		if now >= cfg.LimitCycles {
			return 0, 0, 0, fmt.Errorf("coherence probe: %s did not halt within %d cycles", m.app, cfg.LimitCycles)
		}
		for _, p := range procs {
			p.Step()
		}
	}
	cpu = cpuTime() - t0
	for _, th := range threads {
		cycles = max(cycles, th.HaltedAt+1)
	}
	return cycles, fm.Hash(), cpu, nil
}

// probeResults holds what the layer probes measured.
type probeResults struct {
	metrics map[string]float64
	checks  int // consistency checks made
	failed  int // and failed
}

func (r *probeResults) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: probe check failed: "+format+"\n", args...)
	}
}

// runProbes runs every layer probe. tmpDir is where the journal probe
// writes its file.
func runProbes(seed int64, tmpDir string) (*probeResults, error) {
	r := &probeResults{metrics: map[string]float64{}}
	if err := r.cache(); err != nil {
		return nil, err
	}
	if err := r.coherence(seed); err != nil {
		return nil, err
	}
	res, err := r.snapshot(seed)
	if err != nil {
		return nil, err
	}
	if err := r.journal(tmpDir, res); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *probeResults) cache() error {
	plain, cpu, err := cacheProbe.run(nil)
	if err != nil {
		return err
	}
	var log memLog
	wrapped, _, err := cacheProbe.run(&log)
	if err != nil {
		return err
	}
	r.check(plain == wrapped, "cache probe: stats differ with the forwarding wrapper")
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		return err
	}
	rcpu, digest := replay(log.calls, []memsys.System{h})
	r.check(digest == log.digest, "cache probe: replay diverged from the recorded calls")

	acc := float64(log.accesses())
	m := r.metrics
	m["cache.access_calls"] = acc
	m["cache.fetch_calls"] = float64(log.fetches)
	m["cache.access_ns"] = ratio(float64(rcpu.Nanoseconds()), float64(len(log.calls)))
	m["cache.l1_hit_ratio"] = ratio(float64(log.classes[memsys.HitL1]), acc)
	m["cache.mshr_full_ratio"] = ratio(float64(log.classes[memsys.MSHRFull]), acc)
	m["cache.self_share"] = ratio(rcpu.Seconds(), cpu.Seconds())
	m["core.self_share"] = 1 - m["cache.self_share"]
	m["core.host_ns_per_cycle"] = ratio(float64((cpu - rcpu).Nanoseconds()), float64(plain.Cycles))
	return nil
}

func (r *probeResults) coherence(seed int64) error {
	cfg := coherenceProbe.config(seed)
	p, err := coherenceProbe.program(cfg)
	if err != nil {
		return err
	}
	ref, err := mp.Run(p, cfg)
	if err != nil {
		return err
	}
	cycles, hash, cpu, err := coherenceProbe.run(p, cfg, nil)
	if err != nil {
		return err
	}
	r.check(cycles == ref.Cycles && hash == ref.MemHash,
		"coherence probe: %d cycles, memory %016x; mp.Run: %d cycles, memory %016x", cycles, hash, ref.Cycles, ref.MemHash)
	var log memLog
	wcycles, whash, _, err := coherenceProbe.run(p, cfg, &log)
	if err != nil {
		return err
	}
	r.check(wcycles == cycles && whash == hash, "coherence probe: result differs with the forwarding wrapper")
	fab, err := coherence.NewFabric(cfg.Coherence, cfg.Processors)
	if err != nil {
		return err
	}
	nodes := make([]memsys.System, cfg.Processors)
	for i := range nodes {
		nodes[i] = fab.Node(i)
	}
	rcpu, digest := replay(log.calls, nodes)
	r.check(digest == log.digest, "coherence probe: replay diverged from the recorded calls")

	acc := float64(log.accesses())
	m := r.metrics
	m["coherence.access_calls"] = acc
	m["coherence.access_ns"] = ratio(float64(rcpu.Nanoseconds()), acc)
	m["coherence.remote_ratio"] = ratio(float64(log.classes[memsys.RemoteMem]+log.classes[memsys.RemoteCache]), acc)
	m["coherence.self_share"] = ratio(rcpu.Seconds(), cpu.Seconds())
	return nil
}

const snapshotRuns = 5

// snapshot forks one cell of the switch-cost sweep from its warm-up
// checkpoint and runs the same cell from scratch. It returns the scratch
// result for the journal probe.
func (r *probeResults) snapshot(seed int64) (*workstation.Result, error) {
	const fingerprint = "perfbench-probe"
	ctx := context.Background()
	ucfg := experiments.DefaultUniConfig()
	kernels, err := experiments.ResolveWorkload("DC")
	if err != nil {
		return nil, err
	}
	cell := workstation.DefaultConfig(core.Blocked, 4)
	cell.OS.SliceCycles = ucfg.SliceCycles
	cell.WarmupRotations = ucfg.WarmupRotations
	cell.MeasureRotations = ucfg.MeasureRotations
	cell.Seed = seed
	cell.Measure.BlockedFlushCost = 5
	prefix := cell
	prefix.Measure = workstation.MeasureOverrides{}

	// Each call is timed in process CPU time snapshotRuns times and
	// reported as its median.
	var ckpts, decodes, resumes, fulls []float64
	var data []byte
	var scratch *workstation.Result
	ms := func(t0 time.Duration) float64 { return float64((cpuTime() - t0).Nanoseconds()) / 1e6 }
	for range snapshotRuns {
		t0 := cpuTime()
		data, err = workstation.CheckpointWarmupCtx(ctx, kernels, prefix, fingerprint)
		ckpts = append(ckpts, ms(t0))
		if err != nil {
			return nil, err
		}
		t0 = cpuTime()
		_, err := snapshot.Decode(data, workstation.Kind, fingerprint)
		decodes = append(decodes, ms(t0))
		if err != nil {
			return nil, err
		}
		t0 = cpuTime()
		forked, err := workstation.ResumeCtx(ctx, kernels, cell, data, fingerprint)
		resumes = append(resumes, ms(t0))
		if err != nil {
			return nil, err
		}
		t0 = cpuTime()
		scratch, err = workstation.RunCtx(ctx, kernels, cell)
		fulls = append(fulls, ms(t0))
		if err != nil {
			return nil, err
		}
		r.check(forked.Stats == scratch.Stats && forked.FairThroughput == scratch.FairThroughput,
			"snapshot probe: forked cell differs from its scratch run")
	}

	m := r.metrics
	m["snapshot.bytes"] = float64(len(data))
	m["snapshot.checkpoint_ms"] = median(ckpts)
	m["snapshot.resume_ms"] = median(resumes)
	m["snapshot.decode_ms"] = median(decodes)
	m["snapshot.fork_overhead_ms"] = median(ckpts) + median(resumes) - median(fulls)
	return scratch, nil
}

// journal appends one record per uni-grid cell to a fresh journal.
func (r *probeResults) journal(dir string, res *workstation.Result) error {
	ucfg := experiments.DefaultUniConfig()
	cells, err := experiments.UniGridSize(ucfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", os.Getpid()))
	j, err := experiments.CreateJournal(path, experiments.NewFingerprint(&ucfg, nil, nil))
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var appends []float64
	for i := range cells {
		t0 := time.Now()
		j.Record(experiments.GridWorkstation, i, &experiments.UniCellRecord{Result: res})
		appends = append(appends, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if err := errors.Join(j.Err(), j.Close()); err != nil {
		return err
	}
	r.check(j.Appended() == cells, "journal probe: %d of %d records appended", j.Appended(), cells)
	r.metrics["experiments.journal_append_ms"] = median(appends)
	return nil
}
