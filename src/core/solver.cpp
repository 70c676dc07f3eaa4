#include "core/solver.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <exception>
#include <vector>

#include "core/bicg.hpp"
#include "core/bicgstab.hpp"
#include "core/chebyshev.hpp"
#include "core/cg.hpp"
#include "core/cgs.hpp"
#include "core/forensics.hpp"
#include "core/gmres.hpp"
#include "core/lockstep.hpp"
#include "core/pipelined.hpp"
#include "core/richardson.hpp"
#include "core/workspace.hpp"
#include "obs/attribution.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bsis {

namespace {

int max_threads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

int this_thread()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

/// Number of workspace slots a composition needs (solver scratch +
/// preconditioner storage).
int workspace_slots(const SolverSettings& s)
{
    const int prec = precond_work_vectors(s.precond, s.block_jacobi_size);
    switch (s.solver) {
    case SolverType::bicgstab:
        return bicgstab_work_vectors + prec;
    case SolverType::bicg:
        return bicg_work_vectors + prec;
    case SolverType::cgs:
        return cgs_work_vectors + prec;
    case SolverType::cg:
        return cg_work_vectors + prec;
    case SolverType::gmres:
        return gmres_work_vectors(s.gmres_restart) + prec;
    case SolverType::richardson:
        return richardson_work_vectors + prec;
    case SolverType::chebyshev:
        // +3 scratch slots for the Gershgorin bound computation.
        return chebyshev_work_vectors + 3 + prec;
    }
    return 0;
}

/// Per-calling-thread solver scratch, persistent across solve_batch calls
/// so repeated solves (Picard loops, bench repetitions) stop reallocating.
/// thread_local (rather than a global pool) keeps concurrent solve_batch
/// calls from different host threads isolated; the OpenMP threads of each
/// call's parallel region index into their caller's pool.
struct SolveScratch {
    WorkspacePool workspaces;
    /// Separate pool for the lockstep path: its slots are rows * W long,
    /// and growing the scalar pool's slot length would trip the scalar
    /// kernels' slot-length asserts.
    WorkspacePool lockstep_workspaces;
    std::vector<GmresScratch> gmres;
};

SolveScratch& solve_scratch()
{
    thread_local SolveScratch scratch;
    return scratch;
}

/// Formats the lockstep path can ELL-ize into the interleaved slab
/// (shared-pattern sparse formats; BatchDense has no shared pattern).
template <typename BatchMatrix>
inline constexpr bool lockstep_supported_format =
    std::is_same_v<BatchMatrix, BatchCsr<real_type>> ||
    std::is_same_v<BatchMatrix, BatchEll<real_type>> ||
    std::is_same_v<BatchMatrix, BatchSellp<real_type>>;

/// The SIMD lanes a solve of this composition runs with: `lockstep_lanes`
/// when the lockstep path covers it and the caller asked for lockstep, 1
/// for the scalar path. The one eligibility predicate: dispatch, the work
/// profile and the solve.start event all read it.
template <typename BatchMatrix>
int simd_lanes(const SolverSettings& s)
{
    const bool lockstep =
        lockstep_supported_format<BatchMatrix> && s.lockstep_width >= 2 &&
        (s.solver == SolverType::bicgstab || s.solver == SolverType::cg) &&
        s.precond != PrecondType::block_jacobi;
    return lockstep ? lockstep_lanes : 1;
}

/// Dispatches the runtime solver choice to the compile-time lockstep
/// kernel.
template <bool UseJacobi, typename BatchMatrix>
void run_lockstep(const BatchMatrix& a, const BatchVector<real_type>& b,
                  BatchVector<real_type>& x, const SolverSettings& settings,
                  StopCriterion stop, BatchLog& log,
                  obs::ConvergenceHistory* history)
{
    constexpr int W = lockstep_lanes;
    auto& pool = solve_scratch().lockstep_workspaces;
    const bool zero_guess = !settings.use_initial_guess;
    const int max_iters = settings.max_iterations;
    if (settings.solver == SolverType::cg) {
        if (settings.pipelined) {
            run_batch_lockstep<W, UseJacobi, true, true>(
                a, b, x, zero_guess, stop, max_iters, pool, log, history);
        } else {
            run_batch_lockstep<W, UseJacobi, true, false>(
                a, b, x, zero_guess, stop, max_iters, pool, log, history);
        }
    } else {
        if (settings.pipelined) {
            run_batch_lockstep<W, UseJacobi, false, true>(
                a, b, x, zero_guess, stop, max_iters, pool, log, history);
        } else {
            run_batch_lockstep<W, UseJacobi, false, false>(
                a, b, x, zero_guess, stop, max_iters, pool, log, history);
        }
    }
}

/// Runs the fully composed kernel over the batch: on the lockstep path
/// when `lanes > 1` (see simd_lanes), else one entry per thread. Prec is a
/// compile-time parameter here, exactly as in the paper's fused kernel.
template <typename BatchMatrix, typename Prec>
void run_batch(const BatchMatrix& a, const BatchVector<real_type>& b,
               BatchVector<real_type>& x, const SolverSettings& settings,
               StopCriterion stop, int lanes, BatchLog& log,
               obs::ConvergenceHistory* history)
{
    if constexpr (lockstep_supported_format<BatchMatrix> &&
                  !std::is_same_v<Prec, BlockJacobiPrec>) {
        if (lanes > 1) {
            run_lockstep<std::is_same_v<Prec, JacobiPrec>>(
                a, b, x, settings, stop, log, history);
            return;
        }
    }
    const size_type nbatch = a.num_batch();
    const index_type n = x.len();
    const int solver_slots = workspace_slots(settings);
    const int nthreads = max_threads();

    auto& scratch = solve_scratch();
    scratch.workspaces.require(nthreads, n, solver_slots);
    if (static_cast<int>(scratch.gmres.size()) < nthreads) {
        scratch.gmres.resize(static_cast<std::size_t>(nthreads));
    }
    auto& workspaces = scratch.workspaces;
    auto& gmres_scratch = scratch.gmres;

    // Exceptions cannot unwind through an OpenMP region: capture the
    // first one and rethrow it after the loop.
    std::exception_ptr failure;
    // Per-thread result staging (merged below): recording directly into
    // the shared log from inside the loop makes adjacent entries' writes
    // false-share cache lines across threads. Chunked dynamic scheduling
    // amortizes the per-entry scheduler handshake over 8 entries while
    // keeping the load balancing that varying iteration counts need.
    BatchLogStage stage(nthreads);
#pragma omp parallel for schedule(dynamic, 8)
    for (size_type i = 0; i < nbatch; ++i) {
        try {
        obs::ScopedSpan entry_span("solve_entry", "solver",
                                   static_cast<std::int64_t>(i));
        auto& ws = workspaces.at(this_thread());
        const auto av = a.entry(i);
        const auto bv = b.entry(i);
        auto xv = x.entry(i);
        if (!settings.use_initial_guess) {
            blas::fill(xv, real_type{0});
        }
        // Preconditioner storage lives in the tail slots of the workspace
        // (contiguous, so a multi-slot strip is one view).
        const int prec_vecs =
            precond_work_vectors(settings.precond, settings.block_jacobi_size);
        const int prec_slot_base = solver_slots - prec_vecs;
        Prec prec = [&] {
            if constexpr (std::is_same_v<Prec, BlockJacobiPrec>) {
                return BlockJacobiPrec(settings.block_jacobi_size);
            } else {
                return Prec{};
            }
        }();
        {
            obs::ScopedSpan setup_span("precond_setup", "solver");
            obs::PhaseTimer setup_timer(obs::Phase::precond);
            if constexpr (std::is_same_v<Prec, JacobiPrec>) {
                prec.generate(av, ws.slot(prec_slot_base));
            } else if constexpr (std::is_same_v<Prec, BlockJacobiPrec>) {
                prec.generate(av, VecView<real_type>{
                                      ws.slot(prec_slot_base).data,
                                      ws.length() * prec_vecs});
            } else {
                (void)prec_slot_base;
                prec.generate(av, VecView<real_type>{});
            }
        }

        // Residual trajectory staging; every kernel exposes a history
        // parameter, so all solvers record when the caller asked for one.
        std::vector<real_type> traj;
        std::vector<real_type>* traj_ptr = history != nullptr ? &traj
                                                              : nullptr;

        EntryResult result;
        switch (settings.solver) {
        case SolverType::bicgstab:
            result = settings.pipelined
                         ? pipelined_bicgstab_kernel(
                               av, bv, xv, prec, stop,
                               settings.max_iterations, ws, 0, traj_ptr)
                         : bicgstab_kernel(av, bv, xv, prec, stop,
                                           settings.max_iterations, ws, 0,
                                           traj_ptr);
            break;
        case SolverType::bicg:
            result = bicg_kernel(av, bv, xv, prec, stop,
                                 settings.max_iterations, ws, 0, traj_ptr);
            break;
        case SolverType::cgs:
            result = cgs_kernel(av, bv, xv, prec, stop,
                                settings.max_iterations, ws, 0, traj_ptr);
            break;
        case SolverType::cg:
            result = settings.pipelined
                         ? pipelined_cg_kernel(av, bv, xv, prec, stop,
                                               settings.max_iterations, ws,
                                               0, traj_ptr)
                         : cg_kernel(av, bv, xv, prec, stop,
                                     settings.max_iterations, ws, 0,
                                     traj_ptr);
            break;
        case SolverType::gmres:
            result = gmres_kernel(
                av, bv, xv, prec, stop, settings.max_iterations,
                settings.gmres_restart, ws,
                gmres_scratch[static_cast<std::size_t>(this_thread())], 0,
                traj_ptr);
            break;
        case SolverType::richardson:
            result = richardson_kernel(av, bv, xv, prec, stop,
                                       settings.max_iterations, ws,
                                       settings.richardson_omega, 0,
                                       traj_ptr);
            break;
        case SolverType::chebyshev: {
            const auto bounds = gershgorin_bounds(
                av, ws, chebyshev_work_vectors,
                settings.precond != PrecondType::identity);
            result = chebyshev_kernel(av, bv, xv, prec, stop,
                                      settings.max_iterations, bounds, ws, 0,
                                      traj_ptr);
            break;
        }
        }
        stage.record(this_thread(), i, result.iterations,
                     result.residual_norm, result.converged,
                     result.failure);
        if (history != nullptr) {
            for (std::size_t k = 0; k < traj.size(); ++k) {
                history->record(i, static_cast<int>(k), traj[k]);
            }
            history->finalize(i, result.iterations, result.residual_norm,
                              result.converged);
        }
        } catch (...) {
#pragma omp critical(bsis_solver_failure)
            {
                if (!failure) {
                    failure = std::current_exception();
                }
            }
        }
    }
    stage.merge_into(log);
    if (failure) {
        std::rethrow_exception(failure);
    }
}

/// Ledger view of a batch matrix's storage (shape + format), feeding the
/// attribution byte/flop accounting.
template <typename BatchMatrix>
obs::LedgerShape ledger_shape(const BatchMatrix& a)
{
    obs::LedgerShape shape;
    shape.rows = a.rows();
    if constexpr (std::is_same_v<BatchMatrix, BatchCsr<real_type>>) {
        shape.stored_nnz = a.nnz_per_entry();
        shape.nnz_per_row = a.max_nnz_per_row();
    } else if constexpr (std::is_same_v<BatchMatrix, BatchEll<real_type>>) {
        shape.stored_nnz = a.stored_per_entry();
        shape.nnz_per_row = a.nnz_per_row();
    } else if constexpr (std::is_same_v<BatchMatrix,
                                        BatchSellp<real_type>>) {
        shape.stored_nnz = a.stored_per_entry();
        shape.nnz_per_row =
            a.rows() > 0 ? a.stored_per_entry() / a.rows() : 0;
    } else {
        shape.stored_nnz = a.rows() * a.rows();
        shape.nnz_per_row = a.rows();
    }
    return shape;
}

template <typename BatchMatrix>
constexpr obs::LedgerFormat ledger_format()
{
    if constexpr (std::is_same_v<BatchMatrix, BatchCsr<real_type>>) {
        return obs::LedgerFormat::csr;
    } else if constexpr (std::is_same_v<BatchMatrix, BatchEll<real_type>>) {
        return obs::LedgerFormat::ell;
    } else if constexpr (std::is_same_v<BatchMatrix,
                                        BatchSellp<real_type>>) {
        return obs::LedgerFormat::sellp;
    } else {
        return obs::LedgerFormat::dense;
    }
}

/// Joins the measured phase-time delta of this solve with the work ledger:
/// per-phase achieved-GB/s / GF/s / roofline gauges, the drift check
/// against the host roofline model, and the continuous-profiler window.
/// `phases.seconds[]` is wall-clock (already divided by the `threads`
/// that recorded); `phases.cpu_seconds[]` is summed over those threads.
void record_phase_metrics(obs::MetricsRegistry& m,
                          const obs::WorkLedger& ledger,
                          const obs::PhaseTotals& phases, int threads)
{
    const auto peaks = obs::host_roofline();
    const auto attribution = obs::attribute_phases(ledger, phases, peaks);
    obs::record_phase_attribution(m, "solve", attribution);
    // The divisor behind the wall-clock phase seconds: seconds x threads
    // gives back the thread-seconds the spans recorded.
    m.set_named("solve.phase.threads", static_cast<double>(threads));
    m.set_named("solve.roofline.peak_gbps", peaks.gbps);
    m.set_named("solve.roofline.peak_gflops", peaks.gflops);

    // Drift: measured thread-CPU seconds per phase vs the roofline floor
    // the ledger implies (only the SHARES are compared, so the model's
    // absolute bandwidth assumption cancels out, and so would a divisor
    // common to all phases: the CPU seconds stay thread-summed). CPU
    // rather than wall time: a scheduler preemption landing inside one
    // span rewrites the wall-share mix of a millisecond-scale solve,
    // while the CPU shares stay put -- bandwidth attribution above keeps
    // wall time, drift keeps its meaning on a loaded machine.
    // Phase::other has no model and stays zero on both sides.
    double measured[obs::phase_count] = {};
    double modeled[obs::phase_count] = {};
    for (int p = 0; p < obs::phase_count; ++p) {
        if (p == static_cast<int>(obs::Phase::other)) {
            continue;
        }
        measured[p] = phases.cpu_seconds[p];
        const auto& w = ledger.phase[p];
        const double mem_s =
            peaks.gbps > 0 ? w.bytes() / (peaks.gbps * 1e9) : 0.0;
        const double flop_s =
            peaks.gflops > 0 ? w.flops / (peaks.gflops * 1e9) : 0.0;
        modeled[p] = std::max(mem_s, flop_s);
    }
    const auto drift =
        obs::detect_drift(measured, modeled, obs::drift_config());
    obs::record_drift(m, "solve", drift);

    obs::ProfileWindow::Sample sample;
    for (const auto& a : attribution) {
        const int p = static_cast<int>(a.phase);
        sample.seconds[p] = a.seconds;
        sample.gbps[p] = a.gbps;
    }
    obs::profile_window().push(sample);
    obs::profile_window().export_gauges(m);
}

/// Post-solve metrics recording (cold path; called once per batch).
void record_solve_metrics(const BatchSolveResult& result,
                          const obs::WorkLedger& ledger,
                          const obs::PhaseTotals& phases, int threads)
{
    auto& m = obs::metrics();
    m.add_named("solve.batches");
    m.add_named("solve.systems", result.log.num_batch());
    m.add_named("solve.iterations", result.log.total_iterations());
    std::int64_t unconverged = 0;
    const auto iters_id = m.histogram("solve.system_iterations");
    for (size_type i = 0; i < result.log.num_batch(); ++i) {
        m.observe(iters_id, static_cast<double>(result.log.iterations(i)));
        unconverged += result.log.converged(i) ? 0 : 1;
    }
    m.add_named("solve.unconverged", unconverged);
    // Per-class failure tallies. Every class counter is always registered
    // (even at zero) so dashboards see a stable metric set.
    const FailureCounts fails = result.log.failure_counts();
    m.add_named("solve.fail.max_iters",
                fails[static_cast<std::size_t>(FailureClass::max_iters)]);
    m.add_named("solve.fail.breakdown_rho",
                fails[static_cast<std::size_t>(FailureClass::breakdown_rho)]);
    m.add_named(
        "solve.fail.breakdown_omega",
        fails[static_cast<std::size_t>(FailureClass::breakdown_omega)]);
    m.add_named("solve.fail.stagnated",
                fails[static_cast<std::size_t>(FailureClass::stagnated)]);
    m.add_named("solve.fail.non_finite",
                fails[static_cast<std::size_t>(FailureClass::non_finite)]);
    m.observe_named("solve.wall_seconds", result.wall_seconds);
    m.set_named("solve.last_wall_seconds", result.wall_seconds);
    m.set_named("solve.simd_lanes",
                static_cast<double>(result.work.simd_lanes));
    record_phase_metrics(m, ledger, phases, threads);
    obs::sync_trace_dropped_gauge();
}

/// Dumps every non-converged system of the finished solve to the armed
/// recorder. Cold path: runs once per batch, after the parallel region.
/// `x0` is the initial guess the solve actually used (zeros unless the
/// caller warm-started).
template <typename BatchMatrix>
void capture_failures(const BatchMatrix& a, const BatchVector<real_type>& b,
                      const BatchVector<real_type>& x0,
                      const SolverSettings& settings,
                      const BatchSolveResult& result)
{
    auto* recorder = settings.flight_recorder;
    for (size_type i = 0; i < result.log.num_batch(); ++i) {
        if (result.log.converged(i)) {
            continue;
        }
        const auto meta = make_bundle_meta(
            settings, i, result.log,
            result.history.active() ? &result.history : nullptr);
        recorder->capture(to_coo(a.entry(i)), b.entry(i), x0.entry(i),
                          meta);
    }
}

}  // namespace

template <typename BatchMatrix>
BatchSolveResult solve_batch(const BatchMatrix& a,
                             const BatchVector<real_type>& b,
                             BatchVector<real_type>& x,
                             const SolverSettings& settings)
{
    BSIS_ENSURE_DIMS(a.num_batch() == b.num_batch() &&
                         a.num_batch() == x.num_batch(),
                     "matrix/rhs/solution batch counts must match");
    BSIS_ENSURE_DIMS(a.rows() == b.len() && a.rows() == x.len(),
                     "matrix order and vector lengths must match");
    BSIS_ENSURE_ARG(settings.max_iterations >= 0,
                    "negative iteration limit");
    BSIS_ENSURE_ARG(settings.tolerance >= 0, "negative tolerance");

    if (settings.trace_shard_capacity > 0) {
        obs::trace().set_shard_capacity(
            static_cast<std::size_t>(settings.trace_shard_capacity));
    }
    // The lanes that will run: a lockstep request the composition cannot
    // honour shows as simd_lanes 1 next to the requested width.
    const int lanes = simd_lanes<BatchMatrix>(settings);
    if (obs::events_enabled()) {
        obs::events().emit(
            "solve.start",
            {obs::field("systems",
                        static_cast<std::int64_t>(a.num_batch())),
             obs::field("rows", static_cast<std::int64_t>(a.rows())),
             obs::field("solver", solver_name(settings.solver)),
             obs::field("precond", precond_name(settings.precond)),
             obs::field("lockstep_width", settings.lockstep_width),
             obs::field("simd_lanes", lanes),
             obs::field("pipelined", settings.pipelined)});
    }

    BatchSolveResult result;
    result.log = BatchLog(a.num_batch());
    result.work = work_profile(settings.solver, settings.precond,
                               settings.gmres_restart,
                               settings.block_jacobi_size,
                               /*fused=*/true, settings.pipelined);
    result.work.simd_lanes = lanes;
    // The flight recorder wants the failing systems' residual
    // trajectories in the bundle sidecar, so an armed recorder forces the
    // history on even when the caller did not ask for it.
    const bool want_history =
        settings.record_convergence || settings.flight_recorder != nullptr;
    if (want_history) {
        result.history.reset(a.num_batch(), settings.convergence_capacity);
    }
    obs::ConvergenceHistory* history = want_history ? &result.history
                                                    : nullptr;
    // Snapshot the initial guess before the solve overwrites x: the bundle
    // must reproduce the exact starting state. Zeros unless warm-started
    // (run_batch zeroes x per entry in that case).
    BatchVector<real_type> x0_snapshot;
    if (settings.flight_recorder != nullptr) {
        x0_snapshot = settings.use_initial_guess
                          ? x
                          : BatchVector<real_type>(a.num_batch(), x.len());
    }
    obs::ScopedSpan batch_span("solve_batch", "solver",
                               static_cast<std::int64_t>(a.num_batch()));
    // Phase-time delta bracket for the attribution join. The global
    // accumulator tallies every thread, so the delta is attributable to
    // THIS solve as long as solves are not concurrent (the documented
    // assumption of per-solve attribution; concurrent solves only blur
    // the split, never the totals). The delta sums thread-seconds; the
    // per-shard span counts tell how many threads recorded, and dividing
    // by that count makes the phase seconds wall-clock, comparable with
    // the solve's wall time and with the node-wide roofline peak.
    obs::PhaseTotals phases_before;
    std::vector<std::int64_t> shard_calls_before;
    const bool attribute = obs::metrics_enabled();
    if (attribute) {
        phases_before = obs::phase_times().totals();
        shard_calls_before = obs::phase_times().shard_calls();
    }
    Timer timer;
    const StopCriterion stop{settings.stop, settings.tolerance};
    switch (settings.precond) {
    case PrecondType::identity:
        run_batch<BatchMatrix, IdentityPrec>(a, b, x, settings, stop, lanes,
                                             result.log, history);
        break;
    case PrecondType::jacobi:
        run_batch<BatchMatrix, JacobiPrec>(a, b, x, settings, stop, lanes,
                                           result.log, history);
        break;
    case PrecondType::block_jacobi:
        run_batch<BatchMatrix, BlockJacobiPrec>(a, b, x, settings, stop,
                                                lanes, result.log, history);
        break;
    }
    result.wall_seconds = timer.seconds();
    if (attribute && obs::metrics_enabled()) {
        const int threads = obs::recording_threads(
            shard_calls_before, obs::phase_times().shard_calls());
        const obs::PhaseTotals phase_delta =
            (obs::phase_times().totals() - phases_before)
                .wall_clock(threads);
        const auto ledger = obs::work_ledger(
            result.work, ledger_shape(a), ledger_format<BatchMatrix>(),
            static_cast<double>(result.log.total_iterations()),
            static_cast<double>(a.num_batch()));
        record_solve_metrics(result, ledger, phase_delta, threads);
    }
    if (settings.flight_recorder != nullptr) {
        capture_failures(a, b, x0_snapshot, settings, result);
    }
    if (obs::events_enabled()) {
        std::int64_t unconverged = 0;
        for (size_type i = 0; i < result.log.num_batch(); ++i) {
            unconverged += result.log.converged(i) ? 0 : 1;
        }
        obs::events().emit(
            "solve.end",
            {obs::field("systems",
                        static_cast<std::int64_t>(a.num_batch())),
             obs::field("wall_seconds", result.wall_seconds),
             obs::field("iterations", result.log.total_iterations()),
             obs::field("unconverged", unconverged)});
    }
    return result;
}

template BatchSolveResult solve_batch<BatchCsr<real_type>>(
    const BatchCsr<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchEll<real_type>>(
    const BatchEll<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchSellp<real_type>>(
    const BatchSellp<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchDense<real_type>>(
    const BatchDense<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);

}  // namespace bsis
