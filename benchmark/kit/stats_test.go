package kit

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 10}, {0.10, 10}, {0.50, 50}, {0.51, 60}, {0.90, 90}, {0.99, 100}, {1, 100}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Percentile([]int64{}, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %d, want 0", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Percentile of one value = %v, want 7", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns: the acceptance rule is stated in them.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !near(q1, 1.75) || !near(q2, 3.5) || !near(q3, 5.25) {
		t.Errorf("Quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = Quartiles([]float64{20, 10})
	if !near(q1, 7.5) || !near(q2, 15) || !near(q3, 22.5) {
		t.Errorf("Quartiles of two = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = Quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("Quartiles of five = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if s := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); !near(s, 1) {
		t.Errorf("Spread = %v, want (5.25-1.75)/3.5 = 1", s)
	}
	if s := Spread([]float64{42}); s != 0 {
		t.Errorf("Spread of one run = %v, want 0", s)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestWindowRatesDropPartialWindow(t *testing.T) {
	const ms = int64(1e6)
	// Three events in [0,100ms), one in [100,200ms), two in the partial
	// tail [200,250ms) that must not count.
	stamps := []int64{1 * ms, 50 * ms, 99 * ms, 150 * ms, 210 * ms, 240 * ms}
	got := WindowRates(stamps, 100*ms, 250*ms)
	if len(got) != 2 || !near(got[0], 30) || !near(got[1], 10) {
		t.Errorf("WindowRates = %v, want [30 10] per second", got)
	}
	if got := WindowRates(stamps, 100*ms, 50*ms); got != nil {
		t.Errorf("phase shorter than a window gave %v", got)
	}
}
