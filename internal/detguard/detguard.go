// Package detguard backs the run-twice rows of the determinism
// contract. Every output the repository promises is byte-stable — a
// solver's result, a simulation's measurements, a trace, a metrics
// exposition, an experiment report — has a row that renders it Runs
// times in one process and requires every rendering to equal the first
// byte for byte. Go starts each range over a map at a random entry, so
// an output that follows map order changes between renderings. Only
// tests import it.
package detguard

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// Runs is how many times a row renders its output. Go 1.24 starts a
// range over a map of k ≤ 8 entries at a random one of 8 slots, so the
// most frequent order comes up (9−k)/8 of the time: twenty renderings
// all agree with probability 0.07 for a leak through two entries, 8e-5
// through four and 7e-18 through eight. Rows therefore feed their
// output at least four entries wherever the input decides how many a
// map holds.
const Runs = 20

// Row is one output of a package's table.
type Row struct {
	Name string
	// Render writes one rendering of the output, computing it afresh.
	Render func(w io.Writer) error
}

// Check runs each row as a subtest: Runs renderings, each byte-identical
// to the first and none failing.
func Check(t *testing.T, rows []Row) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			Repeat(t, r.Render)
		})
	}
}

// Repeat renders Runs times and fails t at the first rendering that
// differs from the first, showing where.
func Repeat(t testing.TB, render func(w io.Writer) error) {
	t.Helper()
	var first bytes.Buffer
	if err := render(&first); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("the output is empty")
	}
	for i := 1; i < Runs; i++ {
		var got bytes.Buffer
		if err := render(&got); err != nil {
			t.Fatalf("rendering %d: %v", i+1, err)
		}
		if !bytes.Equal(got.Bytes(), first.Bytes()) {
			at := 0
			for at < got.Len() && at < first.Len() && got.Bytes()[at] == first.Bytes()[at] {
				at++
			}
			t.Fatalf("rendering %d differs from the first at byte %d:\n first: %s\n   got: %s",
				i+1, at, window(first.Bytes(), at), window(got.Bytes(), at))
		}
	}
}

// window quotes up to 80 bytes of b around offset at.
func window(b []byte, at int) string {
	lo, hi := max(at-40, 0), min(at+40, len(b))
	return fmt.Sprintf("%q", b[lo:hi])
}

// Value renders what f returns in Go syntax (%#v), which spells every
// float64 in the shortest form that reads back to the same bits. The
// value must hold no pointers: %#v prints their addresses.
func Value(f func() (any, error)) func(w io.Writer) error {
	return func(w io.Writer) error {
		v, err := f()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%#v", v)
		return err
	}
}
