// Command perfbench is the repository's benchmark. It runs one of four
// simulator workloads serially for a fixed time, checks every pass's
// output against the committed results, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as
// one JSON object on the last line of standard output. README.md lists
// the workloads, the metrics, and which layer metric should move which
// end-to-end metric on which workload.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload uni-grid --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
)

// goldenPath is the committed output of the full evaluation, relative to
// the repository root the benchmark runs from.
const goldenPath = "results/experiments_output.txt"

// tmpDir holds the files the benchmark writes while it runs.
const tmpDir = ".bench_build/perfbench-tmp"

// Set-up is timed at least minSetups and at most maxSetups times, until
// setupBudget of CPU time is spent; setup_s is the median.
const (
	minSetups   = 15
	maxSetups   = 1000
	setupBudget = 250 * time.Millisecond
)

// minPasses is the fewest measured passes an untraced run makes.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric a run reports, with its unit;
// BENCHMARK.json lists the same names.
var endToEnd = [][2]string{
	{"cpu_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

var perLayer = [][2]string{
	{"experiments.self_s", "s"},
	{"experiments.journal_append_ms", "ms"},
	{"workstation.cell_calls", "count"},
	{"workstation.cell_ms_p50", "ms"},
	{"workstation.cell_ms_tail", "ms"},
	{"workstation.cycles_per_s", "1/s"},
	{"mp.cell_calls", "count"},
	{"mp.cell_ms_p50", "ms"},
	{"mp.cell_ms_tail", "ms"},
	{"mp.cycles_per_s", "1/s"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.resume_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.fork_overhead_ms", "ms"},
	{"cache.access_calls", "count"},
	{"cache.fetch_calls", "count"},
	{"cache.access_ns", "ns"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.mshr_full_ratio", "ratio"},
	{"cache.self_share", "ratio"},
	{"coherence.access_calls", "count"},
	{"coherence.access_ns", "ns"},
	{"coherence.remote_ratio", "ratio"},
	{"coherence.self_share", "ratio"},
	{"core.self_share", "ratio"},
	{"core.host_ns_per_cycle", "ns"},
	{"core.retired", "count"},
	{"core.busy_slots", "count"},
	{"core.dmem_slots", "count"},
	{"core.icache_slots", "count"},
	{"core.sync_slots", "count"},
	{"core.switch_slots", "count"},
	{"core.host_ns_per_retired", "ns"},
	{"core.cpu_share", "ratio"},
	{"cache.cpu_share", "ratio"},
	{"coherence.cpu_share", "ratio"},
	{"mem.cpu_share", "ratio"},
	{"mp.cpu_share", "ratio"},
	{"workstation.cpu_share", "ratio"},
	{"engine.cpu_share", "ratio"},
	{"snapshot.cpu_share", "ratio"},
	{"experiments.cpu_share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.rss_peak_mb", "MB"},
	{"perfbench.trace_overhead_s", "s"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: uni-grid, mp-grid, mp-stall or sweep-fork")
	seed := flag.Int64("seed", 1, "workload seed; at seed 1 outputs must equal the committed results")
	secs := flag.Float64("seconds", 20, "how long an untraced run measures passes")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of uni-grid, mp-grid, mp-stall, sweep-fork), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}

	printHost()
	setup, inst, err := timeSetup(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	g := &gate{want: inst.want()}
	var values map[string]float64
	if *trace == 1 {
		values, err = tracedRun(inst, g, *seed)
	} else {
		values = untracedRun(inst, g, time.Duration(*secs*float64(time.Second)))
		values["setup_s"] = setup
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if u, ok := inst.(*uniGrid); ok && *trace == 0 {
		fmt.Printf("# paper_gap %.4f (mean |measured - paper| over Table 7's four mean gains)\n", u.gap)
	}

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	rep := report{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		rep.Metrics[n[0]] = metric{values[n[0]], n[1]}
		fmt.Printf("# %-32s %.6g %s\n", n[0], values[n[0]], n[1])
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// gate is the correctness check every pass goes through. A pass whose
// rendered output differs from the expected one fails all its cells.
type gate struct {
	want              string
	attempted, failed int
}

func (g *gate) check(label string, o outcome) {
	if g.want == "" && o.err == nil {
		g.want = o.text // other seeds: every pass must match the first
	}
	failed := o.failed
	if o.err != nil {
		failed = o.cells
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", label, o.err)
	} else if o.text != g.want {
		failed = o.cells
		got, want := strings.Split(o.text, "\n"), strings.Split(g.want, "\n")
		line := min(len(got), len(want))
		for i := range line {
			if got[i] != want[i] {
				line = i
				break
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s output differs from the expected output at line %d\n", label, line+1)
	}
	g.attempted += o.cells
	g.failed += failed
}

// timeSetup sets the workload up repeatedly, each time resolving its
// configs, building its inputs and loading the committed results, and
// returns the median CPU time with the last instance. It repeats at
// least minSetups times and until setupBudget is spent, so a set-up of
// a fraction of a millisecond still gets a steady median.
func timeSetup(w *workload, seed int64) (float64, instance, error) {
	var times []float64
	var inst instance
	var spent time.Duration
	runtime.GC()
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		t0 := cpuTime()
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			return 0, nil, err
		}
		inst, err = w.setup(seed, string(golden))
		if err != nil {
			return 0, nil, err
		}
		d := cpuTime() - t0
		spent += d
		times = append(times, d.Seconds())
	}
	return median(times), inst, nil
}

// passStats is what one measured pass cost on the host.
type passStats struct {
	wall    time.Duration
	cpu     time.Duration // user and system, all threads
	rss     int64         // peak resident set size, bytes
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
}

func measure(fn func() outcome) (outcome, passStats) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := sampleRSS()
	c0 := cpuTime()
	t0 := time.Now()
	o := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	rss := stop()
	runtime.ReadMemStats(&m1)
	return o, passStats{wall, cpu, rss, m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC,
		time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}
}

// cpuTime is the CPU time the process has used, user and system, all
// threads, read from CLOCK_PROCESS_CPUTIME_ID, which has nanosecond
// resolution where getrusage has microseconds.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno)) // Linux always has this clock
	}
	return time.Duration(ts.Nano())
}

// sampleRSS samples the process's resident set size every few
// milliseconds until the returned function is called, which returns the
// largest sample: the peak of one pass, where the kernel's own high-water
// mark would cover the whole process. Sampling allocates nothing after
// the first read, so it does not show in alloc_mb.
func sampleRSS() (stop func() int64) {
	page := int64(os.Getpagesize())
	var peak int64
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return func() int64 { return 0 } // no procfs
	}
	buf := make([]byte, 128)
	read := func() {
		n, _ := f.ReadAt(buf, 0) // io.EOF with the whole file read
		// statm holds "size resident shared ...", in pages.
		var resident int64
		for i := bytes.IndexByte(buf[:n], ' ') + 1; i > 0 && i < n && '0' <= buf[i] && buf[i] <= '9'; i++ {
			resident = resident*10 + int64(buf[i]-'0')
		}
		peak = max(peak, resident*page)
	}
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-done:
				return
			}
		}
	}()
	return func() int64 {
		close(done)
		<-finished
		read()
		f.Close()
		return peak
	}
}

// untracedRun measures public passes until the budget is spent, making
// at least minPasses, and reports medians over them.
func untracedRun(inst instance, g *gate, budget time.Duration) map[string]float64 {
	var walls, cpus, allocs, cps, rss []float64
	var spent time.Duration
	for len(walls) < minPasses || spent+time.Duration(median(walls)*float64(time.Second)) <= budget {
		o, ps := measure(inst.pass)
		g.check(fmt.Sprintf("pass %d", len(walls)+1), o)
		spent += ps.wall
		walls = append(walls, ps.wall.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		allocs = append(allocs, float64(ps.alloc)/1e6)
		rss = append(rss, float64(ps.rss)/1e6)
		cps = append(cps, float64(o.cycles)/ps.cpu.Seconds())
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"wall_s", walls}, {"cpu_s", cpus}, {"rss_peak_mb", rss}} {
		fmt.Printf("# %s over %d passes: q1 %.4f median %.4f q3 %.4f; each %.4f\n",
			q.name, len(q.xs), quantile(q.xs, 0.25), median(q.xs), quantile(q.xs, 0.75), q.xs)
	}
	return map[string]float64{
		"cpu_s":            median(cpus),
		"sim_cycles_per_s": median(cps),
		"alloc_mb":         median(allocs),
	}
}

// tracedRun makes one pass of each kind — public and untraced, per-cell
// with spans, public under the CPU profiler — then runs the layer probes.
func tracedRun(inst instance, g *gate, seed int64) (map[string]float64, error) {
	oA, psA := measure(inst.pass)
	g.check("untraced pass", oA)

	tr := &tracer{}
	oB, _ := measure(func() outcome { return inst.tracedPass(tr) })
	g.check("spanned pass", oB)

	var prof bytes.Buffer
	oC, psC := measure(func() outcome {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return outcome{err: err}
		}
		defer pprof.StopCPUProfile()
		return inst.pass()
	})
	g.check("profiled pass", oC)
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	v := map[string]float64{
		"runtime.gc_count":           float64(psA.gcs),
		"runtime.gc_pause_ms":        float64(psA.gcPause.Nanoseconds()) / 1e6,
		"runtime.rss_peak_mb":        float64(psA.rss) / 1e6,
		"perfbench.trace_overhead_s": (psC.cpu - psA.cpu).Seconds(),
	}
	var spanned time.Duration
	for _, s := range tr.spans {
		spanned += s.cpu
	}
	v["experiments.self_s"] = (psA.cpu - spanned).Seconds()
	for _, layer := range []string{"workstation", "mp"} {
		var ms []float64
		var busy time.Duration
		var cycles int64
		for _, s := range tr.spans {
			if s.layer == layer {
				ms = append(ms, float64(s.cpu.Nanoseconds())/1e6)
				busy += s.cpu
				cycles += s.cycles
			}
		}
		v[layer+".cell_calls"] = float64(len(ms))
		v[layer+".cell_ms_p50"] = median(ms)
		v[layer+".cell_ms_tail"] = tail(ms)
		v[layer+".cycles_per_s"] = ratio(float64(cycles), busy.Seconds())
	}
	st := &tr.stats
	v["core.retired"] = float64(st.Retired)
	for name, cls := range map[string]core.SlotClass{
		"busy": core.SlotBusy, "dmem": core.SlotDMem, "icache": core.SlotICache,
		"sync": core.SlotSync, "switch": core.SlotSwitch,
	} {
		v["core."+name+"_slots"] = float64(st.Slots[cls])
	}
	v["core.host_ns_per_retired"] = ratio(float64(spanned.Nanoseconds()), float64(st.Retired))

	shares := foldByPackage(samples)
	for _, pkg := range []string{"core", "cache", "coherence", "mem", "mp", "workstation", "engine", "snapshot", "experiments"} {
		v[pkg+".cpu_share"] = shares[pkg]
	}
	v["runtime.gc_share"] = shares["runtime.gc"]
	fmt.Printf("# profile: %d samples; other %.3f\n", len(samples), shares["other"])

	probes, err := runProbes(seed, tmpDir)
	if err != nil {
		return nil, err
	}
	for k, x := range probes.metrics {
		v[k] = x
	}
	g.attempted += probes.checks
	g.failed += probes.failed
	return v, nil
}

// printHost records the machine and build the numbers were taken on.
func printHost() {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				host["commit"] = s.Value
			case "vcs.modified":
				host["dirty"] = s.Value == "true"
			}
		}
	}
	b, _ := json.Marshal(host) // a map of strings, ints and bools always encodes
	fmt.Printf("# host %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
