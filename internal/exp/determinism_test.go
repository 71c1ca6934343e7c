package exp

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/detguard"
)

// renderAll renders a report's text form, every table's CSV and the
// markdown form — the complete externally visible output of an
// experiment.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tab := range rep.Tables {
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExperimentsDeterministicAcrossJobs runs every registered
// experiment detguard.Runs times, alternating Jobs=1 and Jobs=8, and
// requires the full rendered report to be byte-identical each time.
// This is the engine's contract — worker count changes wall-clock
// time, never results — asserted over every parallelized experiment
// path. The repetition also catches a report assembled in map order:
// fig51 sends its four plot series through a map.
func TestExperimentsDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twenty times")
	}
	for _, r := range All() {
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			jobs := 8
			detguard.Repeat(t, func(w io.Writer) error {
				jobs = 9 - jobs // 1, 8, 1, 8, …
				rep, err := r.Run(Config{Seed: 1, Quick: true, Jobs: jobs})
				if err != nil {
					return fmt.Errorf("jobs=%d: %w", jobs, err)
				}
				_, err = w.Write(renderAll(t, rep))
				return err
			})
		})
	}
}

// TestWritersRepeat renders a report through every writer, and the
// registry's experiment list, detguard.Runs times; each rendering must
// be byte-identical. Unlike TestExperimentsDeterministicAcrossJobs it
// runs under -short.
func TestWritersRepeat(t *testing.T) {
	report := func() *Report {
		tab := &Table{Title: "t", Columns: []string{"x", "a", "b", "c", "d"}, Notes: []string{"n1", "n2"}}
		plot := &Plot{Title: "p", XLabel: "x", YLabel: "y", LogX: true}
		xs := []float64{1, 2, 4, 8, 16}
		for i, name := range []string{"a", "b", "c", "d"} {
			ys := make([]float64, len(xs))
			for j, x := range xs {
				ys[j] = float64(i+1) * x / (x + 3)
			}
			plot.Add(name, xs, ys, 0)
		}
		for j, x := range xs {
			tab.AddRow(F(x), F(plot.Series[0].Y[j]), F(plot.Series[1].Y[j]), Pct(plot.Series[2].Y[j]), F(plot.Series[3].Y[j]))
		}
		return &Report{Name: "r", Title: "writers", Tables: []*Table{tab, tab}, Plots: []*Plot{plot}}
	}
	detguard.Check(t, []detguard.Row{
		{Name: "Table.WriteText", Render: func(w io.Writer) error { return report().Tables[0].WriteText(w) }},
		{Name: "Table.WriteCSV", Render: func(w io.Writer) error { return report().Tables[0].WriteCSV(w) }},
		{Name: "Table.WriteMarkdown", Render: func(w io.Writer) error { return report().Tables[0].WriteMarkdown(w) }},
		{Name: "Plot.WriteText", Render: func(w io.Writer) error { return report().Plots[0].WriteText(w) }},
		{Name: "Report.WriteText", Render: func(w io.Writer) error { return report().WriteText(w) }},
		{Name: "Report.WriteMarkdown", Render: func(w io.Writer) error { return report().WriteMarkdown(w) }},
		{Name: "All", Render: func(w io.Writer) error {
			for _, r := range All() {
				if _, err := fmt.Fprintln(w, r.Name, r.Title); err != nil {
					return err
				}
			}
			return nil
		}},
		{Name: "Latency", Render: detguard.Value(func() (any, error) {
			lat := TorusLatency(4, 10)
			return []float64{lat(0, 5), lat(3, 12), MeanPairLatency(16, lat)}, nil
		})},
	})
}

// TestPointsHelperPropagatesErrors: a failing point aborts the
// experiment with the lowest-indexed error, matching sequential
// behavior.
func TestPointsHelperPropagatesErrors(t *testing.T) {
	_, err := points(Config{Jobs: 8}, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, errTest
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("points swallowed the error")
	}
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }
