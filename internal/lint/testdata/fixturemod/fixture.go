// Package fixture is a deliberately broken module pinning the suite's
// findings under each analyzer's default scope: one violation per
// analyzer that reports in the module root.
package fixture

import "os"

// BadCompare compares floats exactly.
func BadCompare(a, b float64) bool {
	return a == b
}

// BadSolve uses w unvalidated; only a run-time test can reject it.
func BadSolve(w float64) (float64, error) {
	return w * 2, nil
}

// BadClose drops the error from Close.
func BadClose(f *os.File) {
	f.Close()
}
