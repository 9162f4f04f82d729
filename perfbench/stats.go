package main

import "slices"

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics module).
// It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest order statistic that still has ten samples
// above it; with 20 samples or fewer that would not lie above the median,
// so it returns the maximum.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) <= 20 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
