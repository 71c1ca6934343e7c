package rng

import (
	"testing"

	"repro/internal/detguard"
)

// TestOutputsRepeat draws from every exported stream entry point
// detguard.Runs times from the same seeds; each rendering of the draws
// must be byte-identical.
func TestOutputsRepeat(t *testing.T) {
	detguard.Check(t, []detguard.Row{
		{Name: "Stream", Render: detguard.Value(func() (any, error) {
			src := NewSource(SeedAt(7, 3))
			var out []any
			for i := 0; i < 4; i++ {
				r := src.Stream()
				out = append(out, r.Uint64(), r.Float64(), r.Float64Open(), r.Intn(1000),
					r.ExpFloat64(), r.NormFloat64(), r.Perm(8))
			}
			r := New(42)
			return append(out, r.Uint64(), r.NormFloat64()), nil
		})},
	})
}
