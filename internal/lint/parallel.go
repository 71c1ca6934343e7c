package lint

// Parallel analysis driver. Package analysis is embarrassingly parallel
// once the shared interprocedural structures — the call graph, function
// facts, the lock-order graph — exist: analyzer Checks only read them. RunParallel therefore warms every lazily-built
// structure single-threaded, fans the per-package work out through
// internal/runner (the same bounded pool the experiment engine uses),
// and merges results in package order. The merge plus the canonical
// diagnostic sort make the output byte-identical at every job count,
// which TestRunParallelMatchesSequential and the lopc-lint -j golden
// test pin.

import (
	"repro/internal/runner"
)

// Warm builds every lazily-cached interprocedural structure — the call
// graph, per-function facts and the deadlock lock-order graph — so
// subsequent analyzer Checks only read shared state. Safe to call
// redundantly; each structure is generation-cached.
func (l *Loader) Warm() {
	g := l.CallGraph()
	g.Facts()
	g.lockOrderGraph()
}

// RunParallel is RunWithStale with the per-package analysis fanned out
// over jobs workers (jobs <= 0 means GOMAXPROCS). Diagnostics and stale
// records are byte-identical to the sequential run at any job count.
func RunParallel(l *Loader, pkgs []*Package, analyzers []Analyzer, jobs int) ([]Diagnostic, []AllowRecord) {
	if jobs == 1 || len(pkgs) <= 1 {
		return RunWithStale(l, pkgs, analyzers)
	}
	l.Warm()
	known, ran := suiteMaps(analyzers)
	results, err := runner.Map(len(pkgs), runner.Options{Jobs: jobs}, func(i int) (pkgResult, error) {
		return analyzePackage(l, pkgs[i], analyzers, known, ran), nil
	})
	if err != nil {
		// Tasks never fail and no context is involved; keep the
		// sequential path as a defensive fallback rather than dropping
		// findings.
		return RunWithStale(l, pkgs, analyzers)
	}
	return mergeResults(results)
}
