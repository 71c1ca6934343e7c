// Package stats provides the measurement machinery for simulation
// experiments: streaming moment estimators, time-weighted averages for
// queue lengths and utilizations, and batch-means confidence intervals.
//
// Every quantity the LoPC evaluation reports — response times and their
// components, queue lengths, utilizations, throughput — is collected
// through these estimators, so the simulator itself stays free of
// statistics code.
package stats

import (
	"fmt"
	"math"
)

// Tally is a streaming estimator of the mean and variance of a sequence
// of observations, using Welford's numerically stable update. The zero
// value is ready to use.
type Tally struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	t.n++
	if t.n == 1 {
		t.min, t.max = x, x
	} else {
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
	}
	delta := x - t.mean
	t.mean += delta / float64(t.n)
	t.m2 += delta * (x - t.mean)
}

// N returns the number of observations recorded.
func (t *Tally) N() int64 { return t.n }

// Mean returns the sample mean, or 0 with no observations.
func (t *Tally) Mean() float64 { return t.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (t *Tally) Variance() float64 {
	if t.n < 2 {
		return 0
	}
	return t.m2 / float64(t.n-1)
}

// StdDev returns the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Variance()) }

// SCV returns the squared coefficient of variation Var/Mean², or 0 when
// the mean is 0.
func (t *Tally) SCV() float64 {
	//lopc:allow floateq an exactly-zero mean (empty or all-zero tally) makes SCV undefined; 0 by convention
	if t.mean == 0 {
		return 0
	}
	return t.Variance() / (t.mean * t.mean)
}

// Min returns the smallest observation, or 0 with no observations.
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest observation, or 0 with no observations.
func (t *Tally) Max() float64 { return t.max }

// Sum returns the sum of all observations.
func (t *Tally) Sum() float64 { return t.mean * float64(t.n) }

// Merge folds other into t, as if t had seen other's observations too.
func (t *Tally) Merge(other *Tally) {
	if other.n == 0 {
		return
	}
	if t.n == 0 {
		*t = *other
		return
	}
	n1, n2 := float64(t.n), float64(other.n)
	delta := other.mean - t.mean
	tot := n1 + n2
	t.mean += delta * n2 / tot
	t.m2 += other.m2 + delta*delta*n1*n2/tot
	t.n += other.n
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// HalfWidth95 returns the half-width of the two-sided 95% confidence
// interval for the mean, treating the observations as independent —
// appropriate when each observation is itself the mean of an
// independent replication. It returns +Inf with fewer than two
// observations (one replication pins no interval).
func (t *Tally) HalfWidth95() float64 {
	if t.n < 2 {
		return math.Inf(1)
	}
	return tCritical95(int(t.n-1)) * t.StdDev() / math.Sqrt(float64(t.n))
}

func (t *Tally) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		t.n, t.Mean(), t.StdDev(), t.min, t.max)
}

// TimeWeighted integrates a piecewise-constant quantity (queue length,
// busy indicator) over simulated time. Mean() returns the time-average,
// which is what Little's law and the utilization law relate.
type TimeWeighted struct {
	lastTime  float64
	lastValue float64
	area      float64
	start     float64
	started   bool
}

// Set records that the quantity changed to value v at time t. Calls
// must have non-decreasing t; the value is assumed constant between
// calls.
func (w *TimeWeighted) Set(t, v float64) {
	if !w.started {
		w.start, w.started = t, true
	} else {
		if t < w.lastTime {
			panic(fmt.Sprintf("stats: TimeWeighted.Set time went backwards: %v < %v", t, w.lastTime))
		}
		w.area += w.lastValue * (t - w.lastTime)
	}
	w.lastTime, w.lastValue = t, v
}

// Advance extends the integration to time t without changing the value.
func (w *TimeWeighted) Advance(t float64) { w.Set(t, w.lastValue) }

// Mean returns the time-average of the quantity from the first Set to
// the last Set/Advance, or 0 if no interval has elapsed.
func (w *TimeWeighted) Mean() float64 {
	elapsed := w.lastTime - w.start
	if elapsed <= 0 {
		return 0
	}
	return w.area / elapsed
}

// Value returns the current (most recently set) value.
func (w *TimeWeighted) Value() float64 { return w.lastValue }

// Elapsed returns the covered time span.
func (w *TimeWeighted) Elapsed() float64 {
	if !w.started {
		return 0
	}
	return w.lastTime - w.start
}

// Reset restarts integration at time t with value v, discarding history.
// Experiments call it at the end of warmup so transient state does not
// bias steady-state averages.
func (w *TimeWeighted) Reset(t, v float64) {
	*w = TimeWeighted{lastTime: t, lastValue: v, start: t, started: true}
}

// tDist95 holds two-sided 95% Student-t critical values for small
// degrees of freedom; beyond the table the normal value 1.96 is used.
var tDist95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for
// df degrees of freedom.
func tCritical95(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tDist95) {
		return tDist95[df]
	}
	return 1.96
}

// BatchMeans computes a confidence interval for the steady-state mean of
// a correlated output sequence (e.g. successive cycle response times) by
// grouping observations into fixed-size batches and treating the batch
// means as independent. This is the standard method for simulation
// output analysis.
type BatchMeans struct {
	batchSize int
	current   Tally
	batches   Tally
}

// NewBatchMeans returns an estimator with the given batch size.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize < 1 {
		panic("stats: batch size must be >= 1")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.current.Add(x)
	if b.current.N() >= int64(b.batchSize) {
		b.batches.Add(b.current.Mean())
		b.current = Tally{}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// HalfWidth95 returns the half-width of the 95% confidence interval for
// the mean, or +Inf with fewer than two completed batches.
func (b *BatchMeans) HalfWidth95() float64 {
	n := b.batches.N()
	if n < 2 {
		return math.Inf(1)
	}
	return tCritical95(int(n-1)) * b.batches.StdDev() / math.Sqrt(float64(n))
}

// RelErr returns the signed relative error (got-want)/want, or 0 when
// want is 0. Experiment reports use it for model-vs-simulation columns.
func RelErr(got, want float64) float64 {
	//lopc:allow floateq relative error is undefined only at an exactly-zero reference; 0 by convention
	if want == 0 {
		return 0
	}
	return (got - want) / want
}

// AutoCorr estimates the lag-k autocorrelation of a series — the
// standard diagnostic for choosing a batch size in simulation output
// analysis: batches should be long enough that batch means are nearly
// uncorrelated.
func AutoCorr(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - mean)
		}
	}
	//lopc:allow floateq the denominator is exactly zero only for a constant series, where autocorrelation is undefined
	if den == 0 {
		return 0
	}
	return num / den
}

// SuggestBatchSize returns a batch size for BatchMeans such that the
// lag-1 autocorrelation of batch means over the given series falls
// below the threshold, doubling from minSize; it returns maxSize if no
// smaller batch achieves it.
func SuggestBatchSize(xs []float64, threshold float64, minSize, maxSize int) int {
	if minSize < 1 {
		minSize = 1
	}
	for size := minSize; size < maxSize; size *= 2 {
		var means []float64
		for i := 0; i+size <= len(xs); i += size {
			sum := 0.0
			for _, x := range xs[i : i+size] {
				sum += x
			}
			means = append(means, sum/float64(size))
		}
		if len(means) < 8 {
			break
		}
		if r := AutoCorr(means, 1); r < threshold && r > -threshold {
			return size
		}
	}
	return maxSize
}
