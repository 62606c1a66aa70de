package main

import (
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// beyond it; with ten samples or fewer there is none, and the maximum
// stands in.
func tail(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// unionLen returns the length of the union of the intervals.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].a.Before(s[j].a) })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	return total + cur.b.Sub(cur.a)
}
