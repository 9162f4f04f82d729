package cache

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// Tests of the miss-register file: the line-ordered slice of outstanding
// L1D fills behind AccessData's service, merge, MSHR-full and expiry
// paths.

// streamBase is the first byte of the benchmark region: 64 consecutive
// pages, one per TLB slot, so a warmed TLB never misses there.
const streamBase = 0x100000

// accessStream is a miss-heavy data reference stream over 256 KB (four
// times the L1D). Every even-position reference is repeated 15 positions
// later, the way the core replays a faulting access: a repeat that
// arrives before the fill merges into it, one that arrives after is
// served from the miss register, and one refused with MSHR-full misses
// afresh. Fills whose repeat merged are never consumed and expire.
func accessStream(n int) []uint32 {
	lines := make([]uint32, n)
	x := uint32(12345)
	for i := range lines {
		if i >= 15 && i%2 == 1 {
			lines[i] = lines[i-15]
			continue
		}
		x = x*1664525 + 1013904223
		lines[i] = x >> 19 // 8192 lines of 32 bytes
	}
	for i := range lines {
		lines[i] = streamBase + lines[i]*32
	}
	return lines
}

// warmTLB translates every page of the stream region.
func warmTLB(h *Hierarchy) int64 {
	now := int64(0)
	for p := uint32(0); p < 64; p++ {
		now = warm(h, streamBase+p<<12, now)
	}
	h.DrainFills(now)
	return now
}

// checkFile fails t unless the miss-register file is in strictly
// ascending line order and the prefetch occupancy count matches it.
func checkFile(t *testing.T, h *Hierarchy, where string) {
	t.Helper()
	prefetches := 0
	for i, pf := range h.pending {
		if i > 0 && h.pending[i-1].line >= pf.line {
			t.Fatalf("%s: miss register %d holds line %#x after %#x", where, i, pf.line, h.pending[i-1].line)
		}
		if pf.prefetch {
			prefetches++
		}
	}
	if prefetches != h.prefetchOutstanding {
		t.Fatalf("%s: prefetchOutstanding = %d, file holds %d prefetches", where, h.prefetchOutstanding, prefetches)
	}
}

// fillLines returns the line addresses of the miss-fill events in evs.
func fillLines(evs []metrics.Event) []uint32 {
	var out []uint32
	for _, ev := range evs {
		if ev.Kind == metrics.KindMissFill {
			out = append(out, ev.Addr)
		}
	}
	return out
}

func ascending(lines []uint32) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			return false
		}
	}
	return true
}

// TestMissRegisterOrder drives the stream with every prefetcher and with
// MSHRs raised after construction (as workstation Measure.MSHRs does),
// and checks that batch installs (expiry, DrainFills) happen in strictly
// ascending line order, that the prefetch occupancy count tracks the
// file, and that an MSHR-full refusal names the earliest fill.
func TestMissRegisterOrder(t *testing.T) {
	stream := accessStream(4000)
	for _, mode := range []PrefetchMode{PrefetchOff, PrefetchNextLine, PrefetchStride} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newPH(t, mode)
			now := warmTLB(h)
			h.L1D.InvalidateAll()
			h.L2.InvalidateAll()
			h.P.MSHRs = 16
			sink := metrics.NewSink(0, 1<<20)
			h.obsSink = sink

			var full, expiries, drains, maxOcc int
			for i, addr := range stream {
				if i%500 == 499 {
					// A gap longer than the fill hold: the next access
					// expires everything that is still waiting.
					now += 2 * fillHoldCycles
				}
				pc := uint32(0x400)
				if i%5 == 0 {
					// A constant-stride walk for the stride prefetcher.
					addr, pc = streamBase+uint32(i*7%8192)*32, 0x800
				}
				mark := len(sink.Events())
				fullBefore := h.Stats.DataByClass[memsys.MSHRFull]
				r := h.AccessData(addr, false, pc, now)
				checkFile(t, h, "access")
				maxOcc = max(maxOcc, len(h.pending))

				if h.Stats.DataByClass[memsys.MSHRFull] > fullBefore {
					full++
					earliest := h.pending[0].fill
					for _, pf := range h.pending {
						earliest = min(earliest, pf.fill)
					}
					if r.FillAt != earliest {
						t.Fatalf("access %d: MSHR-full retry at %d, earliest fill %d", i, r.FillAt, earliest)
					}
				}
				// Expiry installs come first; a served fill for this
				// access's own line may follow them.
				lines := fillLines(sink.Events()[mark:])
				if n := len(lines); n > 0 && lines[n-1] == addr&^31 {
					lines = lines[:n-1]
				}
				if !ascending(lines) {
					t.Fatalf("access %d: expiry installed lines %#x", i, lines)
				}
				if len(lines) > 1 {
					expiries++
				}
				now += 2

				if i%250 == 0 {
					mark = len(sink.Events())
					h.DrainFills(now + 40)
					checkFile(t, h, "drain")
					if lines := fillLines(sink.Events()[mark:]); !ascending(lines) {
						t.Fatalf("DrainFills installed lines %#x", lines)
					} else if len(lines) > 1 {
						drains++
					}
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if full == 0 || expiries == 0 || drains == 0 {
				t.Fatalf("stream exercised %d MSHR-full refusals, %d expiry and %d drain batches; want all",
					full, expiries, drains)
			}
			if limit := DefaultParams().MSHRs + prefetchBufEntries; maxOcc <= limit {
				t.Fatalf("peak occupancy %d never outgrew the initial %d registers", maxOcc, limit)
			}
			if mode != PrefetchOff && h.Stats.PrefetchesIssued == 0 {
				t.Fatal("prefetcher never issued")
			}
		})
	}
}

func TestCheckInvariantsCatchesDisorderedFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lines [2]uint32
	}{{"descending", [2]uint32{0x900, 0x100}}, {"duplicate", [2]uint32{0x100, 0x100}}} {
		h := newH(t)
		h.pending = append(h.pending,
			pendingFill{line: tc.lines[0], fill: 10},
			pendingFill{line: tc.lines[1], fill: 20})
		err := h.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "after line") {
			t.Errorf("%s: CheckInvariants = %v, want a line-order violation", tc.name, err)
		}
	}
}

// savedWithMisses returns a next-line-prefetch hierarchy holding more
// miss registers than the default MSHRs allow (demand and prefetch), its
// saved payload, and the payload offset of the miss-register count.
func savedWithMisses(t *testing.T) (*Hierarchy, []byte, int) {
	t.Helper()
	h := newPH(t, PrefetchNextLine)
	now := warmTLB(h)
	h.L1D.InvalidateAll()
	h.L2.InvalidateAll()
	h.P.MSHRs = 8
	for i := uint32(0); i < 8; i++ {
		h.AccessData(streamBase+i*4096+i*96, false, 0, now)
	}
	if h.prefetchOutstanding == 0 || len(h.pending)-h.prefetchOutstanding <= DefaultParams().MSHRs {
		t.Fatalf("setup: %d registers, %d prefetches", len(h.pending), h.prefetchOutstanding)
	}
	w := snapshot.NewWriter()
	h.SaveState(w)
	prefix := snapshot.NewWriter()
	prefix.Section(sectionHierarchy)
	prefix.Int(h.P.LineSize)
	prefix.Int(h.P.NumBanks)
	h.L1I.SaveState(prefix)
	h.L1D.SaveState(prefix)
	h.L2.SaveState(prefix)
	h.TLB.saveState(prefix)
	h.prefetch.saveState(prefix)
	return h, w.Bytes(), len(prefix.Bytes())
}

// TestRestoreRejectsBadMissFile mutates a real saved payload: an
// out-of-order or duplicated miss-register line, or a prefetch count that
// disagrees with the entries, must restore as snapshot.ErrCorrupt. The
// unmutated payload must restore exactly.
func TestRestoreRejectsBadMissFile(t *testing.T) {
	const entry = 4 + 8 + 1 // line, fill, prefetch flag
	for _, tc := range []struct {
		name   string
		mutate func(p []byte, off int, n int)
	}{
		{"intact", nil},
		{"swapped", func(p []byte, off, _ int) {
			a, b := p[off+4:off+4+entry], p[off+4+entry:off+4+2*entry]
			tmp := append([]byte(nil), a...)
			copy(a, b)
			copy(b, tmp)
		}},
		{"duplicate", func(p []byte, off, _ int) {
			copy(p[off+4+entry:off+4+entry+4], p[off+4:off+4+4])
		}},
		{"prefetch-flag", func(p []byte, off, n int) {
			for i := 0; i < n; i++ {
				flag := p[off+4+i*entry+12:]
				if flag[0] == 0 {
					flag[0] = 1
					return
				}
			}
		}},
		{"prefetch-count", func(p []byte, off, n int) {
			p[off+4+n*entry]++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, payload, off := savedWithMisses(t)
			if tc.mutate != nil {
				tc.mutate(payload, off, len(src.pending))
			}
			h := newPH(t, PrefetchNextLine) // default MSHRs: restore must not bound the file
			r := snapshot.NewReader(payload)
			h.RestoreState(r)
			err := r.Err()
			if tc.mutate == nil {
				if err != nil || h.Hash() != src.Hash() {
					t.Fatalf("intact restore: err %v, hash match %v", err, h.Hash() == src.Hash())
				}
				return
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("restore error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestAccessDataDoesNotAllocate holds the access path to zero heap
// allocations with misses outstanding.
func TestAccessDataDoesNotAllocate(t *testing.T) {
	h := newH(t)
	now := warmTLB(h)
	stream := accessStream(4096)
	for _, addr := range stream {
		h.AccessData(addr, false, 0, now)
		now += 2
	}
	if len(h.pending) == 0 || h.Stats.DataByClass[memsys.MSHRFull] == 0 {
		t.Fatalf("warm-up left %d misses outstanding and %d MSHR-full refusals",
			len(h.pending), h.Stats.DataByClass[memsys.MSHRFull])
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		h.AccessData(stream[i%len(stream)], i%8 == 0, 0, now)
		i++
		now += 2
	})
	if allocs != 0 {
		t.Fatalf("AccessData allocates %.2f times per access", allocs)
	}
}

// BenchmarkHierarchyAccessData times one data access on the miss-heavy
// stream with the default four MSHRs kept busy.
func BenchmarkHierarchyAccessData(b *testing.B) {
	h := MustNewHierarchy(DefaultParams())
	now := warmTLB(h)
	stream := accessStream(4096)
	for _, addr := range stream {
		h.AccessData(addr, false, 0, now)
		now += 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessData(stream[i%len(stream)], i%8 == 0, 0, now)
		now += 2
	}
}
