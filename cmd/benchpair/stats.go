package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for an even
// count) without reordering v; bench/ defines it the same way.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by Python's
// statistics.quantiles(v, n=4) ("exclusive" method), as bench/ prints them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// signTestP is the two-sided sign test's p-value for wins against losses
// (ties already dropped): the chance that a fair coin splits wins+losses
// tosses at least this unevenly.
func signTestP(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := min(wins, losses)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// alpha is the sign test's significance level: 9 wins of 10 pairs pass
// (p = 0.021), 8 of 10 do not (p = 0.109).
const alpha = 0.05

// comparison is one metric × workload over the pairs where both runs
// succeeded.
type comparison struct {
	pairs          int
	medA, medB     float64
	q1A, q3A       float64 // A's quartiles: the spread a gain must clear
	dMed, dQ1, dQ3 float64 // paired relative change (B−A)/A, raw sign
	wins, losses   int     // pairs where B is better / worse than A
	p              float64
	verdict        string
}

// compare pairs a[i] with b[i]; better is BENCHMARK.json's direction,
// "higher" or "lower". B is judged better only when the sign test rejects
// a fair coin in its favour and its median beats A's by more than A's
// interquartile range, worse by the mirror of that rule, and otherwise
// unresolved at this many pairs.
func compare(a, b []float64, better string) comparison {
	c := comparison{pairs: len(a), medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	deltas := make([]float64, 0, len(a))
	for i := range a {
		if a[i] != 0 {
			deltas = append(deltas, (b[i]-a[i])/a[i])
		}
		switch {
		case b[i] == a[i]:
		case (b[i] > a[i]) == (better == "higher"):
			c.wins++
		default:
			c.losses++
		}
	}
	c.dMed = median(deltas)
	c.dQ1, c.dQ3 = quartiles(deltas)
	c.p = signTestP(c.wins, c.losses)
	gap, iqr := c.medB-c.medA, c.q3A-c.q1A
	if better != "higher" {
		gap = -gap
	}
	switch {
	case c.pairs > 0 && c.wins == 0 && c.losses == 0:
		c.verdict = "same"
	case c.p < alpha && c.wins > c.losses && gap > iqr:
		c.verdict = "better"
	case c.p < alpha && c.losses > c.wins && -gap > iqr:
		c.verdict = "worse"
	default:
		c.verdict = fmt.Sprintf("unresolved at %d pairs", c.pairs)
	}
	return c
}
