package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Section rendering for the two grids: the exact bytes each section
// contributes to cmd/experiments' stdout live here, in one copy, so every
// caller that renders a grid result prints what cmd/experiments prints.

// NeedUni reports whether the selection requires the workstation grid.
func NeedUni(sel func(string) bool) bool {
	return sel("table7") || sel("fig6") || sel("fig7")
}

// NeedMP reports whether the selection requires the multiprocessor grid.
func NeedMP(sel func(string) bool) bool {
	return sel("table10") || sel("fig8") || sel("fig9")
}

// RenderUniSections renders the workstation sections the selection asks
// for, byte-identical to what cmd/experiments prints for them.
func RenderUniSections(sel func(string) bool, uni *UniResult) string {
	var b strings.Builder
	if sel("table7") {
		fmt.Fprintln(&b, FormatTable7(uni))
		fmt.Fprintln(&b)
	}
	if sel("fig6") {
		fmt.Fprintln(&b, FormatFigure(uni, core.Blocked, 6))
	}
	if sel("fig7") {
		fmt.Fprintln(&b, FormatFigure(uni, core.Interleaved, 7))
	}
	return b.String()
}

// RenderMPSections renders the multiprocessor sections the selection
// asks for, byte-identical to what cmd/experiments prints for them.
func RenderMPSections(sel func(string) bool, mpr *MPResult) string {
	var b strings.Builder
	if sel("table10") {
		fmt.Fprintln(&b, FormatTable10(mpr))
		fmt.Fprintln(&b)
	}
	if sel("fig8") {
		fmt.Fprintln(&b, FormatMPFigure(mpr, core.Blocked, 8))
	}
	if sel("fig9") {
		fmt.Fprintln(&b, FormatMPFigure(mpr, core.Interleaved, 9))
	}
	return b.String()
}

// Selection turns an -only style list into the selector the renderers
// take: an empty list selects everything.
func Selection(only []string) func(string) bool {
	if len(only) == 0 {
		return func(string) bool { return true }
	}
	want := map[string]bool{}
	for _, n := range only {
		want[strings.TrimSpace(n)] = true
	}
	return func(name string) bool { return want[name] }
}
