package obs

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/detguard"
)

// TestWritePrometheusGolden pins the full exposition byte-for-byte:
// family and series ordering, HELP/TYPE lines, cumulative histogram
// buckets with le last, and value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("lopc_requests_total", "requests served", Labels{"route": "/alltoall"}).Add(3)
	r.Counter("lopc_requests_total", "requests served", Labels{"route": "/mva"}).Inc()
	r.Gauge("lopc_in_flight", "requests in flight", nil).Set(2)
	r.GaugeFunc("lopc_cache_size", "entries in the solve cache", nil, func() float64 { return 7 })
	h := r.Histogram("lopc_latency_us", "request latency in microseconds", nil, []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP lopc_cache_size entries in the solve cache
# TYPE lopc_cache_size gauge
lopc_cache_size 7
# HELP lopc_in_flight requests in flight
# TYPE lopc_in_flight gauge
lopc_in_flight 2
# HELP lopc_latency_us request latency in microseconds
# TYPE lopc_latency_us histogram
lopc_latency_us_bucket{le="1"} 2
lopc_latency_us_bucket{le="2"} 2
lopc_latency_us_bucket{le="4"} 3
lopc_latency_us_bucket{le="+Inf"} 4
lopc_latency_us_sum 104.5
lopc_latency_us_count 4
# HELP lopc_requests_total requests served
# TYPE lopc_requests_total counter
lopc_requests_total{route="/alltoall"} 3
lopc_requests_total{route="/mva"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusDeterministic renders the exposition of a fresh
// registry detguard.Runs times; each must be byte-identical. Every
// family has eight series, registered out of order, and every series
// four labels, so neither the series order of a family nor the key
// order inside a label signature may follow map order.
func TestWritePrometheusDeterministic(t *testing.T) {
	detguard.Repeat(t, func(w io.Writer) error {
		r := NewRegistry()
		for i, route := range []string{"/h", "/c", "/a", "/f", "/b", "/g", "/d", "/e"} {
			labels := Labels{"route": route, "method": "POST", "code": fmt.Sprint(200 + i), "zone": "z" + route[1:]}
			r.Counter("lopc_x_total", "h", labels).Add(int64(i + 1))
			r.Gauge("lopc_x_in_flight", "h", labels).Set(int64(i))
			r.GaugeFunc("lopc_x_ratio", "h", labels, func() float64 { return float64(i) / 7 })
			r.Histogram("lopc_x_us", "h", labels, []float64{1, 4, 16}).Observe(float64(i * i))
		}
		return r.WritePrometheus(w)
	})
}

// TestPrometheusEscaping: HELP newlines/backslashes and label-value
// quotes survive as exposition escapes.
func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("lopc_esc_total", "line one\nback\\slash", Labels{"q": `say "hi"`}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP lopc_esc_total line one\nback\\slash`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `lopc_esc_total{q="say \"hi\""} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestMetricNameValidation: bad names are rejected at registration.
func TestMetricNameValidation(t *testing.T) {
	for _, bad := range []string{"", "9start", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "h", nil)
		}()
	}
}
