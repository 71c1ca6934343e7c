package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition
// WritePrometheus renders (version 0.0.4 of the format).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format: families sorted by name, series sorted by
// label signature, histograms as cumulative `_bucket{le=…}` series plus
// `_sum` and `_count`. Output for identical instrument state is
// byte-identical, so the exposition can be golden-tested.
//
// The family and series tables are copied under the registry lock,
// since a concurrent first registration writes them; the instruments
// are read, and GaugeFunc callbacks run, after it is released, so a
// callback may itself register or read instruments.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type famSeries struct {
		f      *family
		series []*series
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famSeries, len(names))
	for i, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		fs := famSeries{f: f, series: make([]*series, len(sigs))}
		for j, sig := range sigs {
			fs.series[j] = f.series[sig]
		}
		fams[i] = fs
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, fs := range fams {
		f := fs.f
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range fs.series {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w io.Writer, f *family, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.signature), s.counter.Value())
	case s.gauge != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.signature), s.gauge.Value())
	case s.gaugeFn != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.signature), formatValue(s.gaugeFn()))
	case s.hist != nil:
		snap := s.hist.Snapshot()
		cum := int64(0)
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.signature, formatValue(bound)), cum)
		}
		cum += snap.Counts[len(snap.Bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.signature, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(s.signature), formatValue(snap.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.signature), snap.Count)
	}
}

// braced wraps a non-empty label signature in braces.
func braced(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// bracedLe appends the `le` label to a signature, keeping it last the
// way Prometheus's own client renders bucket series.
func bracedLe(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return "{" + sig + `,le="` + le + `"}`
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip representation, with Inf spelled +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the exposition escapes to HELP text: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
