package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workstation"
)

// UniConfig parameterizes the workstation experiments (Table 7 and
// Figures 6-7).
type UniConfig struct {
	// Schemes evaluated against the single-context baseline.
	Schemes []core.Scheme
	// ContextCounts per scheme (the paper uses 2 and 4).
	ContextCounts []int
	// Workloads to run; nil selects all of Table 5.
	Workloads []string

	SliceCycles      int64
	WarmupRotations  int
	MeasureRotations int
	Seed             int64

	// Parallelism bounds how many simulation cells run concurrently:
	// 0 selects DefaultParallelism (GOMAXPROCS), 1 forces the serial
	// path. Results are byte-identical at every setting, so it is
	// excluded from JSON: it never enters -json output or fingerprints.
	Parallelism int `json:"-"`

	// CellTimeout bounds each cell's wall-clock time (-cell-timeout). A
	// cell that exceeds it fails with a typed guard.OpDeadline error —
	// after one retry at a doubled budget, the watchdog discipline applied
	// to wall time — and counts against the exit code like any other cell
	// failure. Zero disables the deadline. Excluded from JSON so the
	// timeout choice never enters result fingerprints: it bounds wall
	// clock, not simulated behavior.
	CellTimeout time.Duration `json:"-"`

	// Guard is the per-cell hardening configuration. A non-zero ChaosSeed
	// is decorrelated per cell with DeriveSeed, so every cell perturbs its
	// own private stream.
	Guard guard.Options

	// Obs configures per-cell observability; enabled, every cell carries
	// its sampled counter series and event trace in UniCell.Metrics.
	Obs metrics.Options

	// Journal, when non-nil, records every completed cell durably and
	// replays cells already present (crash-safe resume). Excluded from
	// JSON so results and fingerprints do not depend on journaling.
	Journal *Journal `json:"-"`

	// Checkpoint configures warm-up sharing for the sensitivity sweeps:
	// sweeps whose swept parameter is a measurement-time override
	// simulate their shared warm-up prefix once and fork every cell from
	// it. Excluded from JSON because forked and from-scratch runs are
	// byte-identical; the one observable consequence — which codec wrote
	// any on-disk checkpoints — is recorded in Fingerprint.Checkpoint.
	Checkpoint CheckpointOptions `json:"-"`
}

// DefaultUniConfig reproduces the paper's setup (time-scaled).
func DefaultUniConfig() UniConfig {
	return UniConfig{
		Schemes:          []core.Scheme{core.Blocked, core.Interleaved},
		ContextCounts:    []int{2, 4},
		SliceCycles:      60_000,
		WarmupRotations:  1,
		MeasureRotations: 2,
		Seed:             1,
	}
}

// QuickUniConfig is a reduced configuration for tests and benchmarks. The
// seed is set explicitly (not inherited implicitly, and never the zero
// value) so quick runs are reproducible by construction.
func QuickUniConfig() UniConfig {
	c := DefaultUniConfig()
	c.SliceCycles = 8_000
	c.MeasureRotations = 1
	c.Seed = 1
	return c
}

// UniCell is one (workload, scheme, contexts) measurement.
type UniCell struct {
	Workload string
	Scheme   core.Scheme
	Contexts int
	// Busy is the raw processor busy fraction (Figures 6-7); Gain is the
	// fairness-normalized throughput relative to the single-context
	// baseline (Table 7's throughput increase; see
	// workstation.Result.FairThroughput).
	Busy      float64
	Gain      float64
	Breakdown core.Breakdown

	// Failed marks a cell whose simulation errored (watchdog trip,
	// invariant violation, panic); Failure is the one-line error and
	// Diagnostic the structured dump when one was attached. The rest of
	// the grid is unaffected (graceful degradation).
	Failed     bool
	Failure    string
	Diagnostic string

	// Retried marks a cell whose first attempt tripped the liveness
	// watchdog and was deterministically re-run at a doubled window; the
	// recorded outcome (success or failure) is the retry's.
	Retried bool `json:",omitempty"`

	// Skipped marks a cell that never completed because the run was
	// interrupted (SIGINT/SIGTERM drain or first-error cancellation).
	// Skipped cells carry no measurement and no failure diagnosis.
	Skipped bool `json:",omitempty"`

	// Metrics is the cell's observability record, nil unless UniConfig.Obs
	// enabled instrumentation.
	Metrics *metrics.CellMetrics `json:",omitempty"`
}

// UniResult holds every cell of the workstation evaluation, including the
// single-context baselines (Scheme == core.Single, Contexts == 1).
type UniResult struct {
	Cfg   UniConfig
	Cells []UniCell
	// Failures counts failed cells; drivers exit non-zero when any cell
	// failed even though the rest of the grid completed.
	Failures int
	// Skipped counts cells lost to an interrupted (drained) run; they
	// render as SKIP and re-run on a journal resume.
	Skipped int `json:",omitempty"`
}

// Cell returns the measurement for (workload, scheme, contexts).
func (r *UniResult) Cell(w string, s core.Scheme, n int) (UniCell, bool) {
	for _, c := range r.Cells {
		if c.Workload == w && c.Scheme == s && c.Contexts == n {
			return c, true
		}
	}
	return UniCell{}, false
}

// MeanGain returns the geometric-mean throughput gain across workloads for
// (scheme, contexts) — the Mean column of Table 7.
func (r *UniResult) MeanGain(s core.Scheme, n int) float64 {
	m, _, _ := r.MeanGainN(s, n)
	return m
}

// MeanGainN additionally reports coverage: used is the number of cells
// that entered the mean, total the number of (s, n) cells in the grid.
// Failed cells and cells without a positive gain (e.g. a lost baseline)
// are excluded from the mean rather than dragged in as zeros.
func (r *UniResult) MeanGainN(s core.Scheme, n int) (mean float64, used, total int) {
	var gs []float64
	for _, c := range r.Cells {
		if c.Scheme == s && c.Contexts == n {
			total++
			if !c.Failed && !c.Skipped {
				gs = append(gs, c.Gain)
			}
		}
	}
	mean, skipped := stats.GeoMean(gs)
	return mean, len(gs) - skipped, total
}

// uniSpec addresses one cell of the workstation grid: the cell at index
// i of uniSpecs(cfg) is the same (workload, scheme, contexts) simulation
// everywhere — the pool, the derived seed and journal replay all key
// cells by this index.
type uniSpec struct {
	workload string
	kernels  []apps.Kernel
	scheme   core.Scheme
	contexts int
}

// uniSpecs enumerates cfg's grid in its canonical order: per workload,
// the single-context baseline first, then schemes × context counts.
func uniSpecs(cfg UniConfig) ([]uniSpec, error) {
	workloads := cfg.Workloads
	if workloads == nil {
		workloads = WorkloadOrder
	}
	var specs []uniSpec
	for _, w := range workloads {
		kernels, err := ResolveWorkload(w)
		if err != nil {
			return nil, err
		}
		specs = append(specs, uniSpec{w, kernels, core.Single, 1})
		for _, s := range cfg.Schemes {
			for _, n := range cfg.ContextCounts {
				specs = append(specs, uniSpec{w, kernels, s, n})
			}
		}
	}
	return specs, nil
}

// UniGridSize returns the number of cells in cfg's workstation grid —
// the number of records AssembleUni takes.
func UniGridSize(cfg UniConfig) (int, error) {
	specs, err := uniSpecs(cfg)
	if err != nil {
		return 0, err
	}
	return len(specs), nil
}

// runUniCell simulates one cell of cfg's workstation grid by index and
// returns its journal record; see runUniCellSpec for the policy.
func runUniCell(ctx context.Context, cfg UniConfig, index int) (*UniCellRecord, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, err := uniSpecs(cfg)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(specs) {
		return nil, fmt.Errorf("experiments: workstation cell %d outside grid [0,%d)", index, len(specs))
	}
	return runUniCellSpec(ctx, cfg, index, specs[index])
}

// runUniCellSpec is the per-cell policy of the workstation grid:
// per-index derived seed and chaos stream, one deterministic retry at a
// doubled budget when the first attempt trips the liveness watchdog or
// the per-cell deadline, failures folded into the record. The only
// non-nil error return is a cancellation of ctx itself (the cell was
// drained, not diagnosed).
func runUniCellSpec(ctx context.Context, cfg UniConfig, i int, sp uniSpec) (*UniCellRecord, error) {
	build := func(attempt int) workstation.Config {
		wcfg := workstation.DefaultConfig(sp.scheme, sp.contexts)
		wcfg.OS.SliceCycles = cfg.SliceCycles
		wcfg.WarmupRotations = cfg.WarmupRotations
		wcfg.MeasureRotations = cfg.MeasureRotations
		wcfg.Seed = DeriveSeed(cfg.Seed, i)
		wcfg.Guard = cellGuard(cfg.Guard, i)
		wcfg.Obs = cfg.Obs
		if attempt > 1 {
			// Escalated re-run: same derived seed, doubled liveness window.
			// A budget trip can mean "slower than the window", not "wedged";
			// doubling separates the two.
			wcfg.Guard.WatchdogWindow = guard.Escalate(wcfg.Guard.WatchdogWindow, attempt-1)
		}
		return wcfg
	}
	run := func(attempt int) (*workstation.Result, error) {
		cellCtx, cancel, budget := withCellDeadline(ctx, cfg.CellTimeout, attempt)
		defer cancel()
		r, err := workstation.RunCtx(cellCtx, sp.kernels, build(attempt))
		return r, classifyDeadline(ctx, cellCtx, budget, err)
	}
	retried := false
	var r *workstation.Result
	var err error
	for attempt := 1; ; attempt++ {
		r, err = run(attempt)
		if err == nil || !guard.IsBudgetTrip(err) || ctx.Err() != nil || attempt >= cellAttempts {
			break
		}
		retried = true
	}
	if err != nil {
		if guard.IsCancellation(err) && ctx.Err() != nil {
			return nil, err // drained mid-cell: renders as SKIP, not journaled
		}
		rec := &UniCellRecord{Failed: true, Retried: retried}
		rec.Failure, rec.Diagnostic = failureStrings(err)
		return rec, nil
	}
	return &UniCellRecord{Result: r, Retried: retried}, nil
}

// AssembleUni folds index-ordered cell records into the evaluation
// result: gains against each workload's single-context baseline, failure
// and skip counts. A nil record is a cell that never completed (the run
// was interrupted) and renders as SKIP. Assembly is pure: the same
// records give the same result however they were produced.
func AssembleUni(cfg UniConfig, recs []*UniCellRecord) (*UniResult, error) {
	specs, err := uniSpecs(cfg)
	if err != nil {
		return nil, err
	}
	if len(recs) != len(specs) {
		return nil, fmt.Errorf("experiments: workstation grid has %d cells, got %d records", len(specs), len(recs))
	}
	res := &UniResult{Cfg: cfg}
	var base *workstation.Result
	for i, sp := range specs {
		rec := recs[i]
		cell := UniCell{Workload: sp.workload, Scheme: sp.scheme, Contexts: sp.contexts}
		isBase := sp.scheme == core.Single && sp.contexts == 1
		switch {
		case rec == nil:
			// The run was interrupted before this cell completed.
			cell.Skipped = true
			res.Skipped++
			if isBase {
				base = nil
			}
		case rec.Failed || rec.Result == nil:
			// The cell failed (watchdog, deadline, invariant, panic — or a
			// malformed record with no result): record it and keep going. A
			// failed baseline zeroes its workload's gains but costs nothing
			// else.
			cell.Retried = rec.Retried
			cell.Failed = true
			cell.Failure, cell.Diagnostic = rec.Failure, rec.Diagnostic
			if cell.Failure == "" {
				cell.Failure = "cell record carries no result"
			}
			res.Failures++
			if isBase {
				base = nil
			}
		default:
			r := rec.Result
			cell.Retried = rec.Retried
			cell.Busy = r.Throughput
			cell.Breakdown = r.Stats.Breakdown()
			cell.Metrics = r.Metrics
			if isBase {
				base = r
				cell.Gain = 1
			} else if base != nil && base.FairThroughput > 0 {
				cell.Gain = r.FairThroughput / base.FairThroughput
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// RunUniprocessor runs the full workstation evaluation. The cells — one
// (workload, scheme, contexts) simulation each — are independent, so they
// fan out across cfg.Parallelism workers; every cell derives its seed
// from its grid position, and results land in a pre-sized slice indexed
// by cell, so the output is byte-identical at every parallelism level.
func RunUniprocessor(cfg UniConfig) (*UniResult, error) {
	return RunUniprocessorCtx(context.Background(), cfg)
}

// RunUniprocessorCtx is RunUniprocessor with cancellation and journaling:
// cancelling ctx drains the grid (queued cells never start, running cells
// stop within engine.BlockCycles cycles, both render as SKIP), and a
// cfg.Journal replays completed cells from a previous run and records new
// ones durably. A cell whose first attempt trips the liveness watchdog is
// retried once at a doubled window with the same derived seed before
// being declared failed.
func RunUniprocessorCtx(ctx context.Context, cfg UniConfig) (*UniResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	specs, err := uniSpecs(cfg)
	if err != nil {
		return nil, err
	}
	j := cfg.Journal
	recs := make([]*UniCellRecord, len(specs))
	failures := runCellsAll(ctx, cfg.Parallelism, len(specs), func(ctx context.Context, i int) error {
		var rec UniCellRecord
		if j.Replay(GridWorkstation, i, &rec) {
			recs[i] = &rec
			return nil
		}
		out, err := runUniCellSpec(ctx, cfg, i, specs[i])
		if err != nil {
			return nil // drained mid-cell: renders as SKIP, not journaled
		}
		recs[i] = out
		j.Record(GridWorkstation, i, out)
		return nil
	})
	// Failures escaping the per-cell classification above are panics
	// recovered by the pool; fold them in as failed cells.
	for _, f := range failures {
		rec := &UniCellRecord{Failed: true}
		rec.Failure, rec.Diagnostic = failureStrings(f.Err)
		recs[f.Index] = rec
		j.Record(GridWorkstation, f.Index, rec)
	}
	res, err := AssembleUni(cfg, recs)
	if err != nil {
		return nil, err
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// FormatTable7 renders the paper's Table 7: throughput increase with
// multiple contexts, as ratios to the single-context baseline.
func FormatTable7(r *UniResult) string {
	var b strings.Builder
	b.WriteString("Table 7: Increase in application throughput with multiple contexts\n")
	b.WriteString("(ratio to single-context baseline; paper reports e.g. interleaved 1.22/1.50 means)\n\n")
	workloads := r.Cfg.Workloads
	if workloads == nil {
		workloads = WorkloadOrder
	}
	header := append([]string{"Contexts", "Scheme"}, workloads...)
	header = append(header, "Mean")
	t := stats.NewTable(header...)
	var usedSum, totalSum int
	for _, n := range r.Cfg.ContextCounts {
		for _, s := range []core.Scheme{core.Interleaved, core.Blocked} {
			found := false
			row := []string{fmt.Sprintf("%d", n), s.String()}
			for _, w := range workloads {
				if c, ok := r.Cell(w, s, n); ok {
					switch {
					case c.Skipped:
						row = append(row, "SKIP")
					case c.Failed:
						row = append(row, "FAIL")
					default:
						row = append(row, stats.Ratio(c.Gain))
					}
					found = true
				} else {
					row = append(row, "-")
				}
			}
			if !found {
				continue
			}
			mean, used, total := r.MeanGainN(s, n)
			usedSum += used
			totalSum += total
			row = append(row, stats.Ratio(mean))
			t.AddRow(row...)
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nMean: geometric mean over cells with a positive gain (%d of %d cells).\n", usedSum, totalSum)
	return b.String()
}

// FormatFigure renders Figure 6 (blocked) or Figure 7 (interleaved): the
// processor-utilization breakdown per workload for 1, 2 and 4 contexts,
// as stacked text bars.
func FormatFigure(r *UniResult, scheme core.Scheme, figure int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s scheme processor utilization\n", figure, scheme)
	b.WriteString("(bar: B=busy i=instr stall I=I-cache D=D-cache/TLB S=switch; number = busy fraction)\n\n")
	workloads := r.Cfg.Workloads
	if workloads == nil {
		workloads = WorkloadOrder
	}
	configs := []struct {
		s core.Scheme
		n int
	}{{core.Single, 1}}
	for _, n := range r.Cfg.ContextCounts {
		configs = append(configs, struct {
			s core.Scheme
			n int
		}{scheme, n})
	}
	for _, w := range workloads {
		fmt.Fprintf(&b, "%s:\n", w)
		for _, cf := range configs {
			c, ok := r.Cell(w, cf.s, cf.n)
			if !ok {
				continue
			}
			if c.Skipped {
				fmt.Fprintf(&b, "  %d ctx SKIPPED (run interrupted)\n", cf.n)
				continue
			}
			if c.Failed {
				fmt.Fprintf(&b, "  %d ctx FAILED: %s\n", cf.n, c.Failure)
				continue
			}
			bd := c.Breakdown
			bar := stats.Bar(50,
				[]float64{bd.Busy + bd.Sync, bd.InstrShort + bd.InstrLong, bd.InstCache, bd.DataMem, bd.Switch},
				[]rune{'B', 'i', 'I', 'D', 'S'})
			fmt.Fprintf(&b, "  %d ctx |%s| %.2f\n", cf.n, bar, c.Busy)
		}
	}
	return b.String()
}
