package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/mp"
	"repro/internal/workstation"
)

func TestUniProbeWrapperKeepsStats(t *testing.T) {
	probe := cacheProbe
	probe.cycles = 200_000
	plain, _, err := probe.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var log memLog
	wrapped, _, err := probe.run(&log)
	if err != nil {
		t.Fatal(err)
	}
	if plain != wrapped {
		t.Fatalf("stats differ with the wrapper:\nplain   %+v\nwrapped %+v", plain, wrapped)
	}
	if log.accesses() == 0 || log.fetches == 0 {
		t.Fatalf("wrapper saw %d accesses and %d fetches", log.accesses(), log.fetches)
	}
	h, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, digest := replay(log.calls, []memsys.System{h}); digest != log.digest {
		t.Fatal("replay diverged from the recorded calls")
	}
}

func TestMPProbeMatchesMPRun(t *testing.T) {
	cfg := coherenceProbe.config(1)
	p, err := coherenceProbe.program(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mp.Run(p, cfg)
	if err != nil || !ref.Completed {
		t.Fatalf("mp.Run: completed=%v err=%v", ref != nil && ref.Completed, err)
	}
	for _, wrapped := range []bool{false, true} {
		var log *memLog
		if wrapped {
			log = &memLog{}
		}
		cycles, hash, _, err := coherenceProbe.run(p, cfg, log)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != ref.Cycles || hash != ref.MemHash {
			t.Errorf("wrapped=%v: probe %d cycles, memory %016x; mp.Run %d cycles, memory %016x",
				wrapped, cycles, hash, ref.Cycles, ref.MemHash)
		}
	}
}

func TestRotationCyclesMatchesWorkstation(t *testing.T) {
	kernels, err := experiments.ResolveWorkload("DC")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c := workstation.DefaultConfig(core.Blocked, n)
		c.OS.SliceCycles = 2_000
		r, err := workstation.RunCtx(context.Background(), kernels, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(c.MeasureRotations) * rotationCycles(c, len(kernels)); r.Stats.Cycles != want {
			t.Errorf("%d contexts: measured %d cycles, rotationCycles predicts %d", n, r.Stats.Cycles, want)
		}
	}
}

// protoMsg builds protobuf messages for the synthetic profile.
type protoMsg []byte

func (m protoMsg) varint(num int, v uint64) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3)
	return binary.AppendUvarint(m, v)
}

func (m protoMsg) bytes(num int, b []byte) protoMsg {
	m = binary.AppendUvarint(m, uint64(num)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestFoldByPackage(t *testing.T) {
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds", // 1-4
		"runtime.mapaccess2_fast32",                    // 5
		"repro/internal/cache.(*Hierarchy).AccessData", // 6
		"repro/internal/core.(*Processor).Step",        // 7
		"repro/internal/mp.newMachine.func1",           // 8
		"runtime.scanobject",                           // 9
		"runtime.gcBgMarkWorker",                       // 10
		"main.main",                                    // 11
	}
	var prof protoMsg
	prof = prof.bytes(1, protoMsg{}.varint(1, 1).varint(2, 2))
	prof = prof.bytes(1, protoMsg{}.varint(1, 3).varint(2, 4))
	// Locations: 1 is the map access inlined into AccessData (innermost
	// line first), 2 is Step, 3 is the mp closure, 4 and 5 are the GC
	// worker, 6 is the benchmark's main.
	loc := func(id uint64, fns ...uint64) protoMsg {
		m := protoMsg{}.varint(1, id)
		for _, f := range fns {
			m = m.bytes(4, protoMsg{}.varint(1, f))
		}
		return m
	}
	for _, l := range []protoMsg{loc(1, 5, 6), loc(2, 7), loc(3, 8), loc(4, 9), loc(5, 10), loc(6, 11)} {
		prof = prof.bytes(4, l)
	}
	for id := uint64(5); id <= 11; id++ {
		prof = prof.bytes(5, protoMsg{}.varint(1, id).varint(2, id))
	}
	// Samples: {stack, cpu ns}. The first uses unpacked fields.
	prof = prof.bytes(2, protoMsg{}.varint(1, 1).varint(1, 2).varint(2, 3).varint(2, 30))
	prof = prof.bytes(2, protoMsg{}.bytes(1, packed(2, 3)).bytes(2, packed(2, 20)))
	prof = prof.bytes(2, protoMsg{}.bytes(1, packed(3)).bytes(2, packed(1, 10)))
	prof = prof.bytes(2, protoMsg{}.bytes(1, packed(4, 5)).bytes(2, packed(1, 25)))
	prof = prof.bytes(2, protoMsg{}.bytes(1, packed(6)).bytes(2, packed(1, 15)))
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 || samples[0].weight != 30 {
		t.Fatalf("decoded %+v", samples)
	}
	got := foldByPackage(samples)
	want := map[string]float64{"cache": 0.3, "core": 0.2, "mp": 0.1, "runtime.gc": 0.25, "other": 0.15}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
	}
	pprof.StopCPUProfile()
	if _, err := decodeProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i][0] || m.Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", what, i, m.Name, m.Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestGateCountsFailedCells(t *testing.T) {
	g := &gate{} // a seed without committed results: the first pass sets the expectation
	g.check("first", outcome{text: "a\nb\n", cells: 5})
	g.check("same", outcome{text: "a\nb\n", cells: 5, failed: 1})
	g.check("differs", outcome{text: "a\nc\n", cells: 5})
	g.check("errs", outcome{err: errProto, cells: 5})
	if g.attempted != 20 || g.failed != 11 {
		t.Fatalf("attempted %d failed %d, want 20 and 11", g.attempted, g.failed)
	}
}
