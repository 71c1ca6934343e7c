package psim

// RunWorkers is Run with the worker count capped at maxWorkers instead
// of GOMAXPROCS, so a test can run more workers than processors. It
// also reports how many times a worker parked at a barrier.
func RunWorkers(cfg Config, maxWorkers int) (RunStats, int64, error) {
	k, err := run(cfg, maxWorkers)
	if err != nil {
		return RunStats{}, 0, err
	}
	return k.stats, k.parks, nil
}
