package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A cell that cannot finish inside its wall-clock budget must fail as a
// diagnosed cell (typed deadline, FAIL in the table, non-zero exit), not
// vanish as a SKIP — and the retry discipline matches the watchdog's:
// one re-run at a doubled budget before giving up.
func TestCellTimeoutFailsCell(t *testing.T) {
	cfg := journalTestConfig()
	cfg.CellTimeout = time.Nanosecond // unmeetable: every attempt expires

	rec, err := runUniCell(context.Background(), cfg, 0)
	if err != nil {
		t.Fatalf("runUniCell: %v (a deadline is a cell failure, not an error)", err)
	}
	if !rec.Failed {
		t.Fatal("cell beat a 1ns wall-clock budget")
	}
	if !rec.Retried {
		t.Error("deadline trip was not retried at a doubled budget")
	}
	if !strings.Contains(rec.Failure, "wall-clock budget") {
		t.Errorf("failure %q does not name the wall-clock budget", rec.Failure)
	}

	// The whole grid degrades gracefully: failures counted, run completes.
	res, err := RunUniprocessorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunUniprocessorCtx: %v", err)
	}
	if res.Failures != len(res.Cells) {
		t.Errorf("%d of %d cells failed; a 1ns budget should fail all", res.Failures, len(res.Cells))
	}
	if res.Skipped != 0 {
		t.Errorf("%d cells skipped; deadlines are failures, not skips", res.Skipped)
	}
}

func TestCellTimeoutFailsMPCell(t *testing.T) {
	cfg := QuickMPConfig()
	cfg.Apps = []string{"ocean"}
	cfg.CellTimeout = time.Nanosecond

	rec, err := runMPCell(context.Background(), cfg, 0)
	if err != nil {
		t.Fatalf("runMPCell: %v (a deadline is a cell failure, not an error)", err)
	}
	if !rec.Failed || !rec.Retried {
		t.Fatalf("want failed+retried deadline record, got %+v", rec)
	}
	if !strings.Contains(rec.Failure, "wall-clock budget") {
		t.Errorf("failure %q does not name the wall-clock budget", rec.Failure)
	}
}

// A generous budget must be invisible: identical records to an unbounded
// run, and no trace of the timeout in the JSON (it is wall-clock policy,
// not simulated behavior, so it must not perturb fingerprints).
func TestCellTimeoutGenerousBudgetIsInvisible(t *testing.T) {
	cfg := journalTestConfig()
	ref, err := runUniCell(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CellTimeout = time.Hour
	got, err := runUniCell(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(got)
	if string(refJSON) != string(gotJSON) {
		t.Errorf("a generous cell timeout changed the record:\n%s\nvs\n%s", gotJSON, refJSON)
	}

	noTO := journalTestConfig()
	withTO := journalTestConfig()
	withTO.CellTimeout = time.Hour
	if NewFingerprint(&noTO, nil, nil).Hash() != NewFingerprint(&withTO, nil, nil).Hash() {
		t.Error("CellTimeout leaked into the config fingerprint")
	}
}

// The per-cell helper must agree with the grid runner cell-for-cell:
// cells run one at a time and folded with AssembleUni give the grid
// runner's bytes, whatever order or process produced the records.
func TestCellHelpersMatchGridRunner(t *testing.T) {
	cfg := journalTestConfig()
	ref, err := RunUniprocessorCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := UniGridSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ref.Cells) {
		t.Fatalf("UniGridSize = %d, grid runner produced %d cells", n, len(ref.Cells))
	}
	recs := make([]*UniCellRecord, n)
	for i := range recs {
		if recs[i], err = runUniCell(context.Background(), cfg, i); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	got, err := AssembleUni(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	gotJSON, _ := json.Marshal(got)
	if string(refJSON) != string(gotJSON) {
		t.Error("cell-by-cell run assembled differently from the grid runner")
	}
	if FormatTable7(got) != FormatTable7(ref) {
		t.Error("cell-by-cell Table 7 differs from the grid runner's")
	}

	if _, err := runUniCell(context.Background(), cfg, n); err == nil {
		t.Error("out-of-range cell index did not error")
	}
}
