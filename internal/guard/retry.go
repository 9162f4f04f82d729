package guard

// Escalate doubles v attempt times (attempt 0 returns v unchanged),
// saturating instead of overflowing — the budget-escalation rule behind
// the watchdog retry (window × 2) and the cell-timeout retry. Exact
// doubling keeps a retried simulation reproducible from (seed, attempt)
// alone: no wall-clock leaks into the budget a cell runs under.
func Escalate(v int64, attempt int) int64 {
	for ; attempt > 0 && v > 0; attempt-- {
		if v >= 1<<61 {
			return 1 << 62
		}
		v <<= 1
	}
	return v
}
