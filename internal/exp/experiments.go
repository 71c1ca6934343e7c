package exp

import (
	"fmt"
	"sort"

	"repro/internal/runner"
)

// Config tunes an experiment run.
type Config struct {
	// Seed roots every simulation in the experiment.
	Seed uint64
	// Quick shrinks simulation lengths about fivefold, for benchmarks
	// and smoke tests; published numbers should use Quick = false.
	Quick bool
	// Jobs bounds how many independent sweep points an experiment
	// simulates concurrently; values <= 0 mean sequential. Every point
	// is a pure function of (Config, point index), so Jobs changes
	// wall-clock time only — reports are byte-identical at any value.
	Jobs int
}

// points runs compute(0) … compute(n-1) — one independent sweep point
// each — with the experiment's configured concurrency and returns the
// results in point order. Experiments compute their points through this
// helper and then render tables and plots sequentially from the
// returned slice, which keeps report bytes independent of Jobs.
func points[T any](cfg Config, n int, compute func(i int) (T, error)) ([]T, error) {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	return runner.Map(n, runner.Options{Jobs: jobs}, compute)
}

// cycles returns the per-thread warmup and measurement cycle counts for
// cycle-driven workloads.
func (c Config) cycles() (warm, measure int) {
	if c.Quick {
		return 100, 300
	}
	return 300, 1500
}

// window returns the warmup and measurement windows for time-driven
// workloads.
func (c Config) window() (warm, measure float64) {
	if c.Quick {
		return 50_000, 300_000
	}
	return 100_000, 1_500_000
}

// The machine constants shared by the paper's figures. The paper's text
// does not state the network latency used in its plots; St = 40 cycles
// is an Alewife-scale value and the figure shapes do not depend on it
// (documented in DESIGN.md).
const (
	figP  = 32
	figSt = 40.0
)

// Runner is one registered experiment.
type Runner struct {
	// Name is the registry key (the paper's figure/table id).
	Name string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment.
	Run func(Config) (*Report, error)
}

var registry = map[string]Runner{}

func register(r Runner) {
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", r.Name))
	}
	registry[r.Name] = r
}

// Get returns the experiment registered under name.
func Get(name string) (Runner, bool) {
	r, ok := registry[name]
	return r, ok
}

// All returns every registered experiment, sorted by name.
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
