package lint

import (
	"reflect"
	"testing"
)

// TestRunParallelMatchesSequential pins the parallel driver's
// byte-identity contract at the API level: the same packages, analyzers
// and config must produce deep-equal diagnostics and stale records at
// any job count.
func TestRunParallelMatchesSequential(t *testing.T) {
	l := fixtureLoader(t)
	var pkgs []*Package
	for _, name := range []string{"clockseam", "rngseam", "deadlock"} {
		_, pkg := loadFixture(t, name)
		pkgs = append(pkgs, pkg)
	}
	analyzers := All()
	seqD, seqS := RunWithStale(l, pkgs, analyzers)
	for _, jobs := range []int{2, 4, 8} {
		parD, parS := RunParallel(l, pkgs, analyzers, jobs)
		if !reflect.DeepEqual(seqD, parD) {
			t.Errorf("jobs=%d: diagnostics differ from sequential run", jobs)
		}
		if !reflect.DeepEqual(seqS, parS) {
			t.Errorf("jobs=%d: stale allows differ from sequential run", jobs)
		}
	}
}
