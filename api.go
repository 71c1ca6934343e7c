package repro

import (
	"context"

	"repro/internal/am"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fit"
	"repro/internal/logp"
	"repro/internal/psim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- Model types and solvers (internal/core) ---

// Params parameterizes the homogeneous LoPC model; see core.Params.
type Params = core.Params

// AllToAllResult is the homogeneous model's per-cycle solution.
type AllToAllResult = core.AllToAllResult

// ClientServerParams parameterizes the work-pile model of Chapter 6.
type ClientServerParams = core.ClientServerParams

// ClientServerResult is the work-pile model's solution.
type ClientServerResult = core.ClientServerResult

// GeneralParams parameterizes the Appendix A model: arbitrary visit
// ratios, heterogeneous work and handler costs, multi-hop requests.
type GeneralParams = core.GeneralParams

// GeneralResult is the Appendix A model's per-thread/per-node solution.
type GeneralResult = core.GeneralResult

// AllToAll solves the homogeneous all-to-all model (Chapter 5).
func AllToAll(p Params) (AllToAllResult, error) { return core.AllToAll(p) }

// TotalRuntime predicts the total runtime of an algorithm issuing n
// blocking requests per thread: n·R.
func TotalRuntime(p Params, n int) (float64, error) { return core.TotalRuntime(p, n) }

// UpperBoundBeta returns β such that R* ≤ W + 2St + β·So (Eq. 5.12
// generalized to any C²; β ≈ 3.45 at C² = 0, which the paper rounds to
// 3.46).
func UpperBoundBeta(c2 float64) float64 { return core.UpperBoundBeta(c2) }

// ClientServer solves the work-pile model for a given client/server
// split (Chapter 6).
func ClientServer(p ClientServerParams) (ClientServerResult, error) {
	return core.ClientServer(p)
}

// OptimalServers returns the Eq. 6.8 closed-form optimal server count
// (real-valued).
func OptimalServers(p ClientServerParams) float64 { return core.OptimalServers(p) }

// OptimalServersInt returns the best integral server count.
func OptimalServersInt(p ClientServerParams) (int, error) { return core.OptimalServersInt(p) }

// ClientServerBounds returns the LogP-style optimistic throughput
// bounds (server bound Ps/So, client bound Pc/(W+2St+2So)).
func ClientServerBounds(p ClientServerParams) (server, client float64) {
	return core.ClientServerBounds(p)
}

// PeakThroughput returns the model throughput at the real-valued
// optimal allocation.
func PeakThroughput(p ClientServerParams) float64 { return core.PeakThroughput(p) }

// General solves the Appendix A model.
func General(p GeneralParams) (GeneralResult, error) { return core.General(p) }

// HomogeneousVisits, ClientServerVisits and MultiHopVisits build the
// standard visit-ratio matrices for the General solver.
func HomogeneousVisits(p int) [][]float64 { return core.HomogeneousVisits(p) }

// ClientServerVisits builds the work-pile visit matrix (pc clients
// followed by ps passive servers).
func ClientServerVisits(pc, ps int) [][]float64 { return core.ClientServerVisits(pc, ps) }

// MultiHopVisits builds a visit matrix whose rows sum to hops.
func MultiHopVisits(p, hops int) [][]float64 { return core.MultiHopVisits(p, hops) }

// MatVec derives the Chapter 3 matrix-vector parameters: the mean work
// between puts and the number of puts per node.
func MatVec(n, p int, tMulAdd float64) (w float64, messages int, err error) {
	return core.MatVec(n, p, tMulAdd)
}

// NonBlockingResult is the non-blocking model's solution (extension of
// the paper's conclusion: requests that overlap computation).
type NonBlockingResult = core.NonBlockingResult

// NonBlocking solves the non-blocking homogeneous model: throughput by
// processor-time conservation (X = 1/(W+2So)), latency by open-queue
// analysis at that fixed rate.
func NonBlocking(p Params) (NonBlockingResult, error) { return core.NonBlocking(p) }

// MultithreadedResult is the multithreaded extension's solution: T
// switch-on-miss contexts per node hiding request latency.
type MultithreadedResult = core.MultithreadedResult

// Multithreaded solves the homogeneous pattern with T threads per node.
func Multithreaded(p Params, t int) (MultithreadedResult, error) {
	return core.Multithreaded(p, t)
}

// LockParams parameterizes the coarse-grained lock model: the critical
// section is the handler service time and the lock queue is the LoPC
// server queue.
type LockParams = core.LockParams

// LockModelResult is the lock model's solution.
type LockModelResult = core.LockResult

// Lock solves the coarse-grained lock model (client-server AMVA with
// the lock as the single server).
func Lock(p LockParams) (LockModelResult, error) { return core.Lock(p) }

// LockBounds returns the optimistic throughput bounds bracketing the
// lock model: the serialization bound 1/So and the uncontended bound
// Threads/(W+2St+So).
func LockBounds(p LockParams) (serial, uncontended float64) { return core.LockBounds(p) }

// LockFreeParams parameterizes the CAS-retry conflict model: one retry
// round is a service, and conflicts regenerate work instead of
// queueing it.
type LockFreeParams = core.LockFreeParams

// LockFreeModelResult is the conflict model's solution.
type LockFreeModelResult = core.LockFreeResult

// LockFree solves the CAS-retry conflict model (after Atalar et al.).
func LockFree(p LockFreeParams) (LockFreeModelResult, error) { return core.LockFree(p) }

// LockFreeBounds returns the optimistic bounds bracketing the conflict
// model: the commit serialization bound 1/St and the conflict-free
// bound Threads/(W+So+St).
func LockFreeBounds(p LockFreeParams) (serial, conflictFree float64) {
	return core.LockFreeBounds(p)
}

// --- LogP baseline (internal/logp) ---

// LogP is the contention-free baseline model of Culler et al.
type LogP = logp.Params

// --- Service/work distributions (internal/dist) ---

// Distribution generates non-negative times and reports exact moments.
type Distribution = dist.Distribution

// Deterministic returns the constant distribution at v (C² = 0). It
// panics unless v is finite and non-negative.
func Deterministic(v float64) Distribution { return dist.NewDeterministic(v) }

// Exponential returns the exponential distribution with mean m (C² = 1).
// It panics unless m is finite and positive.
func Exponential(m float64) Distribution { return dist.NewExponential(m) }

// Uniform returns the uniform distribution on [low, high]. It panics
// unless 0 <= low <= high < +Inf.
func Uniform(low, high float64) Distribution { return dist.NewUniform(low, high) }

// FromMeanSCV returns a distribution with the exact requested mean and
// squared coefficient of variation (the paper's C² knob). It panics
// unless both are finite, scv >= 0 and mean > 0 (or both are zero).
func FromMeanSCV(mean, scv float64) Distribution { return dist.FromMeanSCV(mean, scv) }

// --- Simulation (internal/workload and internal/am on internal/machine, over internal/psim) ---

// SimAllToAllConfig configures an all-to-all simulation run.
type SimAllToAllConfig = workload.AllToAllConfig

// SimAllToAllResult holds all-to-all simulation measurements.
type SimAllToAllResult = workload.AllToAllResult

// SimWorkpileConfig configures a work-pile simulation run.
type SimWorkpileConfig = workload.WorkpileConfig

// SimWorkpileResult holds work-pile simulation measurements.
type SimWorkpileResult = workload.WorkpileResult

// SimMultiHopConfig configures a multi-hop simulation run.
type SimMultiHopConfig = workload.MultiHopConfig

// SimMultiHopResult holds multi-hop simulation measurements.
type SimMultiHopResult = workload.MultiHopResult

// Pattern chooses request destinations in the all-to-all simulator.
type Pattern = workload.Pattern

// SimPar selects the discrete-event core of a simulation run or
// collective (Sync: "seq" | "cons" | "opt"; Jobs: worker goroutines)
// and carries its optional outputs. A nil *SimPar — the zero value of
// every config — runs the sequential core. Every core a run accepts
// produces byte-identical traces and identical measurements for a
// fixed config and seed; the multi-hop, non-blocking, exchange and
// multithreaded runs and the collectives need "seq" or "cons".
type SimPar = workload.ParSim

// SimCoreStats reports parallel-core execution statistics: committed
// events, barrier rounds, and (optimistic core only) rollbacks.
type SimCoreStats = psim.RunStats

// SimCoreTrace captures the committed event trace of a parallel-core
// run, sorted by the canonical global key; two runs agree exactly when
// their traces are byte-identical under WriteTo.
type SimCoreTrace = psim.Trace

// SimulateAllToAll runs the event-driven simulator on the homogeneous
// blocking-request pattern and returns per-cycle measurements directly
// comparable with AllToAll's predictions.
func SimulateAllToAll(cfg SimAllToAllConfig) (SimAllToAllResult, error) {
	return workload.RunAllToAll(cfg)
}

// SimulateWorkpile runs the client-server work-pile simulation.
func SimulateWorkpile(cfg SimWorkpileConfig) (SimWorkpileResult, error) {
	return workload.RunWorkpile(cfg)
}

// SimulateMultiHop runs the multi-hop forwarding simulation.
func SimulateMultiHop(cfg SimMultiHopConfig) (SimMultiHopResult, error) {
	return workload.RunMultiHop(cfg)
}

// SimNonBlockingConfig configures a non-blocking simulation run.
type SimNonBlockingConfig = workload.NonBlockingConfig

// SimNonBlockingResult holds non-blocking simulation measurements.
type SimNonBlockingResult = workload.NonBlockingResult

// SimulateNonBlocking runs the non-blocking (fire-and-forget request)
// workload.
func SimulateNonBlocking(cfg SimNonBlockingConfig) (SimNonBlockingResult, error) {
	return workload.RunNonBlocking(cfg)
}

// SimExchangeConfig configures a bulk-synchronous all-to-all exchange
// run (the Ch. 1 CM-5 scenario: staggered schedule, optional barriers).
type SimExchangeConfig = workload.ExchangeConfig

// SimExchangeResult holds exchange measurements.
type SimExchangeResult = workload.ExchangeResult

// SimulateExchange runs the scheduled all-to-all personalized exchange.
func SimulateExchange(cfg SimExchangeConfig) (SimExchangeResult, error) {
	return workload.RunExchange(cfg)
}

// SimMultithreadConfig configures a multithreaded all-to-all run.
type SimMultithreadConfig = workload.MultithreadConfig

// SimMultithreadResult holds multithreaded measurements.
type SimMultithreadResult = workload.MultithreadResult

// SimulateMultithread runs the multithreaded all-to-all workload.
func SimulateMultithread(cfg SimMultithreadConfig) (SimMultithreadResult, error) {
	return workload.RunMultithread(cfg)
}

// SimLockConfig configures a coarse-grained lock simulation run.
type SimLockConfig = workload.LockConfig

// SimLockResult holds lock simulation measurements.
type SimLockResult = workload.LockSimResult

// SimulateLock runs the coarse-grained lock workload on the simulated
// machine (threads contending for one lock node).
func SimulateLock(cfg SimLockConfig) (SimLockResult, error) {
	return workload.RunLock(cfg)
}

// SimLockFreeConfig configures a CAS-retry simulation run.
type SimLockFreeConfig = workload.LockFreeConfig

// SimLockFreeResult holds CAS-retry simulation measurements.
type SimLockFreeResult = workload.LockFreeSimResult

// SimulateLockFree runs the CAS-retry workload on the discrete-event
// core (threads racing to commit against one versioned word).
func SimulateLockFree(cfg SimLockFreeConfig) (SimLockFreeResult, error) {
	return workload.RunLockFree(cfg)
}

// --- Collectives (internal/am) ---

// CollectiveConfig describes the machine a collective operation runs
// on (separate sender overhead and receiver handler cost).
type CollectiveConfig = am.Config

// BroadcastResult, ReduceResult and BarrierResult report simulated
// collectives next to their analytical schedules.
type BroadcastResult = am.BroadcastResult

// ReduceResult reports a simulated binomial-tree reduction.
type ReduceResult = am.ReduceResult

// BarrierResult reports simulated dissemination barriers.
type BarrierResult = am.BarrierResult

// BroadcastCollective executes the optimal broadcast tree on the
// simulated machine.
func BroadcastCollective(cfg CollectiveConfig) (BroadcastResult, error) { return am.Broadcast(cfg) }

// ReduceCollective executes a binomial-tree sum reduction.
func ReduceCollective(cfg CollectiveConfig, values []float64) (ReduceResult, error) {
	return am.Reduce(cfg, values)
}

// BarrierCollective runs back-to-back dissemination barriers.
func BarrierCollective(cfg CollectiveConfig, iters int) (BarrierResult, error) {
	return am.Barrier(cfg, iters)
}

// BroadcastSchedule computes the greedy optimal broadcast schedule for
// separate send overhead o, latency l, and handler cost h.
func BroadcastSchedule(p int, o, l, h float64) (finish float64, informedAt []float64, parent []int) {
	return am.Schedule(p, o, l, h)
}

// --- Calibration (internal/fit) ---

// FitObservation is one point of a calibration sweep (configured W,
// measured R, optionally measured Rq).
type FitObservation = fit.Observation

// FitResult is a fitted (St, So) parameterization with residuals.
type FitResult = fit.Result

// FitAllToAll calibrates St and So from all-to-all measurements, the
// practitioner's route to LoPC parameters for a real machine.
func FitAllToAll(obs []FitObservation, p int, c2 float64) (FitResult, error) {
	return fit.AllToAll(obs, p, c2)
}

// FitLockObservation is one point of a contention sweep: thread count
// and measured throughput (internal/workload/lockbench produces these).
type FitLockObservation = fit.LockObservation

// FitLockResult is a fitted (W, St) contention parameterization.
type FitLockResult = fit.LockResult

// FitLock calibrates effective (W, St) of the lock model from a
// throughput sweep with the critical section (So, C²) held fixed.
func FitLock(obs []FitLockObservation, so, c2 float64) (FitLockResult, error) {
	return fit.Lock(obs, so, c2)
}

// FitLockFree calibrates effective (W, St) of the CAS-retry conflict
// model from a throughput sweep with the retry round (So, C²) held
// fixed.
func FitLockFree(obs []FitLockObservation, so, c2 float64) (FitLockResult, error) {
	return fit.LockFree(obs, so, c2)
}

// --- Tracing (internal/trace) ---

// Tracer records a simulation as a Chrome trace (chrome://tracing /
// Perfetto JSON). Set it as the Observer of an all-to-all config run
// on the sequential core (a nil or "seq" Par), run, then call
// WriteJSON.
type Tracer = trace.Tracer

// --- Parallel execution (internal/runner) ---

// ParallelOptions tunes a parallel run: worker count (Jobs), and
// optional progress reporting (Progress/Label/Every). Jobs changes
// wall-clock time only, never results.
type ParallelOptions = runner.Options

// RunParallel executes task(0) … task(n-1) on a bounded worker pool and
// returns results in task order. Tasks must be pure functions of their
// index (derive per-task seeds with DeriveSeed); under that contract
// output is bit-identical for every Jobs value. On failure it returns
// the error of the lowest-indexed failed task, exactly as a sequential
// run would.
func RunParallel[T any](n int, opts ParallelOptions, task func(i int) (T, error)) ([]T, error) {
	return runner.Map(n, opts, task)
}

// RunParallelCtx is RunParallel with cancellation: once ctx is done,
// workers stop claiming new tasks, in-flight tasks finish, and the
// context's error is returned (task errors, when present, still win
// with the deterministic lowest-index identity).
func RunParallelCtx[T any](ctx context.Context, n int, opts ParallelOptions, task func(i int) (T, error)) ([]T, error) {
	return runner.MapCtx(ctx, n, opts, task)
}

// DeriveSeed returns the seed for task index of a run rooted at root —
// the substream-derivation scheme (SplitMix64 jump, see internal/rng)
// every parallel path of this repository uses. It is a pure function of
// (root, index), which is what keeps parallel runs reproducible.
func DeriveSeed(root, index uint64) uint64 { return rng.SeedAt(root, index) }

// ReplicatedAllToAll aggregates independent all-to-all replications:
// per-replication means feed stats.Tally fields, so Mean() and
// HalfWidth95() give point estimates with confidence intervals.
type ReplicatedAllToAll = workload.ReplicatedAllToAll

// SimulateAllToAllN runs reps independent replications of cfg, up to
// jobs concurrently (jobs <= 0 means GOMAXPROCS). Replication i uses
// DeriveSeed(cfg.Seed, i), so results do not depend on jobs.
func SimulateAllToAllN(cfg SimAllToAllConfig, reps, jobs int) (ReplicatedAllToAll, error) {
	return workload.RunAllToAllN(cfg, reps, jobs)
}

// ReplicatedWorkpile aggregates independent work-pile replications.
type ReplicatedWorkpile = workload.ReplicatedWorkpile

// SimulateWorkpileN runs reps independent work-pile replications, up to
// jobs concurrently, seeded like SimulateAllToAllN.
func SimulateWorkpileN(cfg SimWorkpileConfig, reps, jobs int) (ReplicatedWorkpile, error) {
	return workload.RunWorkpileN(cfg, reps, jobs)
}

// SweepParallel runs one all-to-all simulation per config, up to jobs
// concurrently, and returns results in config order. Each point is an
// independent simulation rooted at its own config's seed, so the sweep
// is deterministic for every jobs value.
func SweepParallel(cfgs []SimAllToAllConfig, jobs int) ([]SimAllToAllResult, error) {
	return SweepParallelCtx(context.Background(), cfgs, jobs)
}

// SweepParallelCtx is SweepParallel with cancellation: a done ctx stops
// the sweep from claiming further points (points already simulating run
// to completion) and surfaces the context's error. Server deadlines use
// this to stop abandoned sweep work.
func SweepParallelCtx(ctx context.Context, cfgs []SimAllToAllConfig, jobs int) ([]SimAllToAllResult, error) {
	return runner.MapCtx(ctx, len(cfgs), runner.Options{Jobs: jobs}, func(i int) (SimAllToAllResult, error) {
		return workload.RunAllToAll(cfgs[i])
	})
}
