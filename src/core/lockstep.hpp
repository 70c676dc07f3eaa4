// Batch-lockstep solver drivers: W systems per thread, advanced in SIMD.
//
// The scalar host path assigns one batch entry per OpenMP thread at a
// time -- the CPU image of the paper's one-thread-block-per-system
// mapping, with the warp lanes' row-sweep serialized into the kernel
// loops. The lockstep path recovers that lost lane parallelism on the
// OTHER axis: each thread advances a GROUP of W batch entries through the
// same solver iteration simultaneously, with every BLAS-1 sweep, Jacobi
// apply, and SpMV running over batch-interleaved storage (element i of
// lane l at data[i*W + l]) so the inner loop body is one contiguous
// width-W vector operation that `#pragma omp simd` turns into straight
// vector code. Where a GPU warp's 32 lanes sweep the rows of one system,
// the CPU's SIMD lanes here sweep W systems at one row -- same lockstep,
// transposed mapping (see DESIGN.md).
//
// Divergence handling mirrors the GPU's predication: per-lane state is
// masked by COEFFICIENTS, not branches. A lane whose system has converged
// (or broken down) passes (0, ..., 1) into the fused updates so its
// column is left untouched, and is refilled with the next unsolved system
// from a shared atomic counter at the top of the iteration loop -- the
// CPU version of persistent thread blocks draining a work queue. Each
// lane reproduces the scalar fused kernel's operation order exactly
// (same sweeps, same ascending-order reductions, same breakdown checks),
// so a lockstep solve returns the same per-system iteration counts and
// residual norms as the scalar path up to rounding.
#pragma once

#include <atomic>
#include <cmath>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blas/batch_vector.hpp"
#include "blas/kernels.hpp"
#include "core/logger.hpp"
#include "core/pipelined.hpp"
#include "core/stop.hpp"
#include "core/workspace.hpp"
#include "matrix/ell_slab.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsis {

/// Workspace slots of the lockstep BiCGStab group, each of length
/// rows * W: r, r_hat, p, p_hat, v, s, s_hat, t, x, b, inv_diag. The
/// matrix slab occupies `nnz_per_row` further slots as one contiguous
/// strip.
inline constexpr int lockstep_bicgstab_base_slots = 11;

/// Lockstep CG group slots: r, z, p, q, x, b, inv_diag (+ slab strip).
inline constexpr int lockstep_cg_base_slots = 7;

namespace lockstep {

inline int this_thread()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

inline int max_threads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

template <typename T>
inline T diag_at(const CsrView<T>& a, index_type r)
{
    for (index_type k = a.row_ptrs[r]; k < a.row_ptrs[r + 1]; ++k) {
        if (a.col_idxs[k] == r) {
            return a.values[k];
        }
    }
    return T{};
}

template <typename T>
inline T diag_at(const EllView<T>& a, index_type r)
{
    for (index_type k = 0; k < a.nnz_per_row; ++k) {
        if (a.col_idxs[a.at(r, k)] == r) {
            return a.values[a.at(r, k)];
        }
    }
    return T{};
}

template <typename T>
inline T diag_at(const SellpView<T>& a, index_type r)
{
    const index_type slice = r / a.slice_size;
    const index_type width = a.slice_sets[slice + 1] - a.slice_sets[slice];
    for (index_type k = 0; k < width; ++k) {
        if (a.col_idxs[a.at(r, k)] == r) {
            return a.values[a.at(r, k)];
        }
    }
    return T{};
}

/// Scalar-Jacobi setup for one lane: inv_diag(:, lane) := 1 / diag(A_i).
/// Extracts from the SOURCE format view, never from the slab pattern
/// (whose padding slots alias column 0). Matches JacobiPrec::generate's
/// zero-diagonal breakdown behaviour.
template <typename MatrixView>
inline void pack_inv_diag_lane(const MatrixView& a, index_type rows,
                               real_type* inv_diag, int width, int lane)
{
    for (index_type r = 0; r < rows; ++r) {
        const real_type d = diag_at(a, r);
        if (d == real_type{0}) {
            throw NumericalBreakdown("JacobiPrec", "zero diagonal entry");
        }
        inv_diag[static_cast<std::size_t>(r) * width + lane] =
            real_type{1} / d;
    }
}

/// ||v(:, lane)||_2 accumulated in ascending element order (the order of
/// the scalar blas::nrm2).
inline real_type lane_nrm2(const real_type* v, index_type n, int width,
                           int lane)
{
    real_type sum{};
    for (index_type i = 0; i < n; ++i) {
        const real_type vi = v[static_cast<std::size_t>(i) * width + lane];
        sum += vi * vi;
    }
    return std::sqrt(sum);
}

/// v(:, lane) . w(:, lane) in ascending element order.
inline real_type lane_dot(const real_type* v, const real_type* w,
                          index_type n, int width, int lane)
{
    real_type sum{};
    for (index_type i = 0; i < n; ++i) {
        sum += v[static_cast<std::size_t>(i) * width + lane] *
               w[static_cast<std::size_t>(i) * width + lane];
    }
    return sum;
}

}  // namespace lockstep

/// The lockstep kernels' view of the source batch: its size and a packer
/// that loads system `i` into lane `lane` of a group -- its values into
/// the interleaved slab and, when `inv_diag` is non-null, its inverted
/// diagonal. Erasing the source format here compiles each lockstep kernel
/// once instead of once per format; packing runs once per lane refill,
/// outside the iteration loop.
struct LaneSource {
    using PackFn = void (*)(const void* batch, size_type i,
                            const EllSlabPattern& pattern, real_type* slab,
                            real_type* inv_diag, int width, int lane);

    const void* batch = nullptr;
    size_type num_batch = 0;
    PackFn pack_fn = nullptr;

    void pack(size_type i, const EllSlabPattern& pattern, real_type* slab,
              real_type* inv_diag, int width, int lane) const
    {
        pack_fn(batch, i, pattern, slab, inv_diag, width, lane);
    }
};

template <typename SourceBatch>
LaneSource lane_source(const SourceBatch& a)
{
    return {&a, a.num_batch(),
            [](const void* batch, size_type i, const EllSlabPattern& pattern,
               real_type* slab, real_type* inv_diag, int width, int lane) {
                const auto src =
                    static_cast<const SourceBatch*>(batch)->entry(i);
                pack_slab_lane(src, pattern, slab, width, lane);
                if (inv_diag != nullptr) {
                    lockstep::pack_inv_diag_lane(src, pattern.rows, inv_diag,
                                                 width, lane);
                }
            }};
}

/// Runs one thread's lockstep BiCGStab group to queue exhaustion: W lanes
/// advance through the fused iteration together; a finished lane is
/// refilled from `next_system` at the top of the loop. Lane semantics
/// (operation order, breakdown checks, iteration counts) match
/// `bicgstab_kernel` exactly -- see the per-step notes.
template <int W, bool UseJacobi>
void bicgstab_lockstep(const LaneSource& a, const EllSlabPattern& pattern,
                       const BatchVector<real_type>& b,
                       BatchVector<real_type>& x, bool zero_guess,
                       StopCriterion stop, int max_iters, Workspace& ws,
                       std::atomic<size_type>& next_system,
                       BatchLogStage& stage, int thread,
                       obs::ConvergenceHistory* history = nullptr)
{
    const index_type n = pattern.rows;
    const size_type nbatch = a.num_batch;

    real_type* r = ws.slot(0).data;
    real_type* r_hat = ws.slot(1).data;
    real_type* p = ws.slot(2).data;
    real_type* p_hat = ws.slot(3).data;
    real_type* v = ws.slot(4).data;
    real_type* s = ws.slot(5).data;
    real_type* s_hat = ws.slot(6).data;
    real_type* t = ws.slot(7).data;
    real_type* xg = ws.slot(8).data;
    real_type* bg = ws.slot(9).data;
    real_type* inv_diag = ws.slot(10).data;
    // The slab strip is `nnz_per_row` consecutive slots; workspace slots
    // are contiguous in one allocation, so the strip is one flat array.
    real_type* slab = ws.slot(lockstep_bicgstab_base_slots).data;
    const EllSlabView<real_type> av{n, pattern.nnz_per_row,
                                    pattern.col_idxs.data(), slab, W};

    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};  // 1.0 active, 0.0 parked: the coefficient mask
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};
    real_type rho_old[W] = {};
    real_type alpha[W] = {};
    real_type omega[W] = {};

    // Record the lane's outcome and write its solution column back to the
    // caller's entry-major x (the scalar path writes x in place; here the
    // column is the working copy).
    auto finish = [&](int l, int iters, real_type rn, bool conv,
                      FailureClass fc) {
        stage.record(thread, sys[l], iters, rn, conv, fc);
        if (history != nullptr) {
            history->finalize(sys[l], iters, rn, conv);
        }
        unpack_lane(ConstLaneGroupView<real_type>(xg, n, W), l,
                    x.entry(sys[l]));
        active[l] = false;
        act[l] = real_type{0};
    };

    // Load the next unsolved system into lane l. The setup is the scalar
    // kernel's preamble run on one lane's column: pack values / b / x,
    // r = b - A x fused with ||r||, r_hat = r, p = v = 0.
    auto refill = [&](int l) -> bool {
        const size_type i = next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        sys[l] = i;
        a.pack(i, pattern, slab, UseJacobi ? inv_diag : nullptr, W, l);
        pack_lane(b.entry(i), LaneGroupView<real_type>{bg, n, W}, l);
        b_norm[l] = lockstep::lane_nrm2(bg, n, W, l);
        if (zero_guess) {
            zero_lane(LaneGroupView<real_type>{xg, n, W}, l);
        } else {
            pack_lane(ConstVecView<real_type>(x.entry(i)),
                      LaneGroupView<real_type>{xg, n, W}, l);
        }
        spmv_slab_lane(av, l, xg, r);
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            const std::size_t idx = static_cast<std::size_t>(j) * W + l;
            const real_type rj = bg[idx] - r[idx];
            r[idx] = rj;
            sum += rj * rj;
            r_hat[idx] = rj;
            p[idx] = real_type{0};
            v[idx] = real_type{0};
        }
        r_norm[l] = std::sqrt(sum);
        r0[l] = r_norm[l];
        rho_old[l] = real_type{1};
        alpha[l] = real_type{1};
        omega[l] = real_type{1};
        iter[l] = 0;
        active[l] = true;
        act[l] = real_type{1};
        if (history != nullptr) {
            history->record(i, 0, r_norm[l]);
        }
        return true;
    };

    while (true) {
        // Top of the lockstep iteration: park converged / exhausted lanes
        // and refill them until each lane either has work or the queue is
        // dry. A freshly refilled system may converge immediately (zero
        // right-hand side with a zero guess), so the checks loop. The
        // check order (done, non-finite, exhausted) mirrors the scalar
        // kernel's loop top so a system classifies identically on both
        // paths.
        for (int l = 0; l < W; ++l) {
            for (;;) {
                if (!active[l]) {
                    if (!refill(l)) {
                        break;
                    }
                }
                if (stop.done(r_norm[l], b_norm[l])) {
                    finish(l, iter[l], r_norm[l], true,
                           FailureClass::converged);
                    continue;
                }
                if (!std::isfinite(r_norm[l])) {
                    // A poisoned lane used to retire looking exactly like
                    // a clean max-iter exit; park it promptly with its
                    // real cause instead.
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::non_finite);
                    continue;
                }
                if (iter[l] >= max_iters) {
                    finish(l, max_iters, r_norm[l], false,
                           classify_exhausted(r_norm[l], r0[l], false));
                    continue;
                }
                break;
            }
        }
        bool any_active = false;
        for (int l = 0; l < W; ++l) {
            any_active = any_active || active[l];
        }
        if (!any_active) {
            break;
        }

        real_type ca[W];
        real_type cb[W];
        real_type cc[W];

        // rho = r . r_hat; serious breakdown parks the lane with the
        // scalar kernel's exact result (iter, r_norm, false).
        real_type rho[W];
        obs::traced(obs::Phase::reduction, "reduction", [&] { blas::dot_lanes<W>(r, r_hat, n, rho); });
        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                if (rho[l] == real_type{0} || omega[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           rho[l] == real_type{0}
                               ? FailureClass::breakdown_rho
                               : FailureClass::breakdown_omega);
                } else {
                    beta[l] = (rho[l] / rho_old[l]) * (alpha[l] / omega[l]);
                }
            }
        }
        // p = r + beta * (p - omega * v); parked lanes pass (0, 0, 1).
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = active[l] ? -beta[l] * omega[l] : real_type{0};
            cc[l] = active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpbypcz_lanes<W>(ca, r, cb, v, cc, p, n); });
        // p_hat = M^-1 p (mask-selected so parked columns keep their
        // values rather than being recomputed from stale operands).
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, p, act, p_hat, n);
            } else {
                blas::copy_lanes<W>(p, act, p_hat, n);
            }
        });
        // v = A p_hat for all lanes; a parked lane's column receives
        // garbage that never escapes the lane (refill rewrites it).
        obs::traced(obs::Phase::spmv, "spmv", [&] { spmv_lanes<W>(av, p_hat, v); });
        real_type r_hat_v[W];
        obs::traced(obs::Phase::reduction, "reduction",
                    [&] { blas::dot_lanes<W>(r_hat, v, n, r_hat_v); });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                if (r_hat_v[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                } else {
                    alpha[l] = rho[l] / r_hat_v[l];
                }
            }
        }
        // s = r - alpha * v fused with ||s||.
        real_type s_norm[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = active[l] ? -alpha[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::zaxpby_nrm2_lanes<W>(ca, r, cb, v, s, n, s_norm);
        });
        // Early exit on ||s||: the scalar kernel applies x += alpha*p_hat
        // and returns {iter+1, s_norm, true}. Here the lane rides the
        // remaining sweeps with its omega coefficient zeroed (so the fused
        // x-update applies exactly alpha * p_hat) and parks at the bottom.
        bool early[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                early[l] = stop.done(s_norm[l], b_norm[l]);
            }
        }
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, s, act, s_hat, n);
            } else {
                blas::copy_lanes<W>(s, act, s_hat, n);
            }
        });
        obs::traced(obs::Phase::spmv, "spmv", [&] { spmv_lanes<W>(av, s_hat, t); });
        real_type t_t[W];
        real_type t_s[W];
        obs::traced(obs::Phase::reduction, "reduction",
                    [&] { blas::dot2_lanes<W>(t, t, s, n, t_t, t_s); });
        bool tt0[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l] && !early[l]) {
                if (t_t[l] == real_type{0}) {
                    tt0[l] = true;
                } else {
                    omega[l] = t_s[l] / t_t[l];
                }
            }
        }
        // x += alpha * p_hat + omega * s_hat (omega coefficient zeroed for
        // early-exit and t.t-breakdown lanes, matching the scalar axpy).
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? alpha[l] : real_type{0};
            cb[l] = active[l] && !early[l] && !tt0[l] ? omega[l]
                                                      : real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p_hat, cb, s_hat, cc, xg, n);
        });
        // r = s - omega * t fused with ||r|| for continuing lanes.
        real_type rn_new[W];
        for (int l = 0; l < W; ++l) {
            const bool cont = active[l] && !early[l] && !tt0[l];
            ca[l] = cont ? real_type{1} : real_type{0};
            cb[l] = cont ? -omega[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::zaxpby_nrm2_lanes<W>(ca, s, cb, t, r, n, rn_new);
        });
        for (int l = 0; l < W; ++l) {
            if (!active[l]) {
                continue;
            }
            if (early[l]) {
                finish(l, iter[l] + 1, s_norm[l], true,
                       FailureClass::converged);
            } else if (tt0[l]) {
                // t.t == 0 after a failed ||s|| check: the scalar kernel
                // returns {iter+1, s_norm, stop.done(s_norm, b_norm)},
                // and the stop check just failed.
                finish(l, iter[l] + 1, s_norm[l], false,
                       FailureClass::breakdown_omega);
            } else {
                r_norm[l] = rn_new[l];
                rho_old[l] = rho[l];
                ++iter[l];
                if (history != nullptr) {
                    history->record(sys[l], iter[l], r_norm[l]);
                }
            }
        }
    }
}

/// Pipelined lockstep BiCGStab: the lane protocol of `bicgstab_lockstep`
/// with the per-iteration reduction structure of
/// `pipelined_bicgstab_kernel`. The three STANDALONE lane-group reduction
/// sweeps disappear entirely: r_hat.v fuses into the first SpMV sweep
/// (the freshly produced v is dotted in registers), the t-side quad
/// reduction fuses into the second SpMV sweep, and s.r_hat rides the
/// s-update sweep -- so a W-wide group serializes on lane scalars at TWO
/// points per iteration (after each SpMV) instead of five. rho and the
/// residual norm are carried by the single-iteration recurrences.
template <int W, bool UseJacobi>
void bicgstab_lockstep_pipelined(
    const LaneSource& a, const EllSlabPattern& pattern,
    const BatchVector<real_type>& b, BatchVector<real_type>& x,
    bool zero_guess, StopCriterion stop, int max_iters, Workspace& ws,
    std::atomic<size_type>& next_system, BatchLogStage& stage, int thread,
    obs::ConvergenceHistory* history = nullptr)
{
    const index_type n = pattern.rows;
    const size_type nbatch = a.num_batch;

    real_type* r = ws.slot(0).data;
    real_type* r_hat = ws.slot(1).data;
    real_type* p = ws.slot(2).data;
    real_type* p_hat = ws.slot(3).data;
    real_type* v = ws.slot(4).data;
    real_type* s = ws.slot(5).data;
    real_type* s_hat = ws.slot(6).data;
    real_type* t = ws.slot(7).data;
    real_type* xg = ws.slot(8).data;
    real_type* bg = ws.slot(9).data;
    real_type* inv_diag = ws.slot(10).data;
    real_type* slab = ws.slot(lockstep_bicgstab_base_slots).data;
    const EllSlabView<real_type> av{n, pattern.nnz_per_row,
                                    pattern.col_idxs.data(), slab, W};

    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};
    real_type rho[W] = {};
    real_type rho_old[W] = {};
    real_type alpha[W] = {};
    real_type omega[W] = {};

    auto finish = [&](int l, int iters, real_type rn, bool conv,
                      FailureClass fc) {
        stage.record(thread, sys[l], iters, rn, conv, fc);
        if (history != nullptr) {
            history->finalize(sys[l], iters, rn, conv);
        }
        unpack_lane(ConstLaneGroupView<real_type>(xg, n, W), l,
                    x.entry(sys[l]));
        active[l] = false;
        act[l] = real_type{0};
    };

    auto refill = [&](int l) -> bool {
        const size_type i = next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        sys[l] = i;
        a.pack(i, pattern, slab, UseJacobi ? inv_diag : nullptr, W, l);
        pack_lane(b.entry(i), LaneGroupView<real_type>{bg, n, W}, l);
        b_norm[l] = lockstep::lane_nrm2(bg, n, W, l);
        if (zero_guess) {
            zero_lane(LaneGroupView<real_type>{xg, n, W}, l);
        } else {
            pack_lane(ConstVecView<real_type>(x.entry(i)),
                      LaneGroupView<real_type>{xg, n, W}, l);
        }
        spmv_slab_lane(av, l, xg, r);
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            const std::size_t idx = static_cast<std::size_t>(j) * W + l;
            const real_type rj = bg[idx] - r[idx];
            r[idx] = rj;
            sum += rj * rj;
            r_hat[idx] = rj;
            p[idx] = real_type{0};
            v[idx] = real_type{0};
        }
        r_norm[l] = std::sqrt(sum);
        r0[l] = r_norm[l];
        // First rho is measured (r_hat = r here, matching the scalar
        // pipelined kernel's setup dot); later rhos come from the
        // recurrence at the bottom of the iteration.
        rho[l] = lockstep::lane_dot(r, r_hat, n, W, l);
        rho_old[l] = real_type{1};
        alpha[l] = real_type{1};
        omega[l] = real_type{1};
        iter[l] = 0;
        active[l] = true;
        act[l] = real_type{1};
        if (history != nullptr) {
            history->record(i, 0, r_norm[l]);
        }
        return true;
    };

    while (true) {
        // Loop-top checks in the scalar pipelined kernel's order: done,
        // non-finite, exhausted, then the rho/omega breakdown split (rho
        // is already known here -- that is the pipelining).
        for (int l = 0; l < W; ++l) {
            for (;;) {
                if (!active[l]) {
                    if (!refill(l)) {
                        break;
                    }
                }
                if (stop.done(r_norm[l], b_norm[l])) {
                    finish(l, iter[l], r_norm[l], true,
                           FailureClass::converged);
                    continue;
                }
                if (!std::isfinite(r_norm[l])) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::non_finite);
                    continue;
                }
                if (iter[l] >= max_iters) {
                    finish(l, max_iters, r_norm[l], false,
                           classify_exhausted(r_norm[l], r0[l], false));
                    continue;
                }
                if (rho[l] == real_type{0} || omega[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           rho[l] == real_type{0}
                               ? FailureClass::breakdown_rho
                               : FailureClass::breakdown_omega);
                    continue;
                }
                break;
            }
        }
        bool any_active = false;
        for (int l = 0; l < W; ++l) {
            any_active = any_active || active[l];
        }
        if (!any_active) {
            break;
        }

        real_type ca[W];
        real_type cb[W];
        real_type cc[W];

        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                beta[l] = (rho[l] / rho_old[l]) * (alpha[l] / omega[l]);
            }
        }
        // p = r + beta * (p - omega * v); parked lanes pass (0, 0, 1).
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = active[l] ? -beta[l] * omega[l] : real_type{0};
            cc[l] = active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpbypcz_lanes<W>(ca, r, cb, v, cc, p, n); });
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, p, act, p_hat, n);
            } else {
                blas::copy_lanes<W>(p, act, p_hat, n);
            }
        });
        // v = A p_hat with r_hat . v fused into the producing sweep: the
        // first lane-group synchronization point of the iteration.
        real_type r_hat_v[W];
        obs::traced(obs::Phase::spmv, "spmv", [&] {
            spmv_lanes_dot<W>(av, p_hat, r_hat, v, r_hat_v);
        });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                if (r_hat_v[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                } else {
                    alpha[l] = rho[l] / r_hat_v[l];
                }
            }
        }
        // s = r - alpha * v fused with ||s|| AND s . r_hat (the rho
        // recurrence operand rides the update sweep).
        real_type s_norm[W];
        real_type s_rhat[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = active[l] ? -alpha[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::zaxpby_nrm2_dot_lanes<W>(ca, r, cb, v, r_hat, s, n,
                                           s_norm, s_rhat);
        });
        bool early[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                early[l] = stop.done(s_norm[l], b_norm[l]);
            }
        }
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, s, act, s_hat, n);
            } else {
                blas::copy_lanes<W>(s, act, s_hat, n);
            }
        });
        // t = A s_hat with t.t, t.s, t.r_hat fused into the producing
        // sweep (t.t / t.s bit-identical to the classic dual dot): the
        // second and last synchronization point.
        real_type t_t[W];
        real_type t_s[W];
        real_type t_rhat[W];
        obs::traced(obs::Phase::spmv, "spmv", [&] {
            spmv_lanes_dot3<W>(av, s_hat, s, r_hat, t, t_t, t_s, t_rhat);
        });
        bool tt0[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l] && !early[l]) {
                if (t_t[l] == real_type{0}) {
                    tt0[l] = true;
                } else {
                    omega[l] = t_s[l] / t_t[l];
                }
            }
        }
        // x += alpha * p_hat + omega * s_hat (omega zeroed for early-exit
        // and t.t-breakdown lanes, as in the classic lockstep kernel).
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? alpha[l] : real_type{0};
            cb[l] = active[l] && !early[l] && !tt0[l] ? omega[l]
                                                      : real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p_hat, cb, s_hat, cc, xg, n);
        });
        // r = s - omega * t, PLAIN: ||r|| and the next rho come from the
        // recurrences below, not from this sweep.
        for (int l = 0; l < W; ++l) {
            const bool cont = active[l] && !early[l] && !tt0[l];
            ca[l] = cont ? real_type{1} : real_type{0};
            cb[l] = cont ? -omega[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::zaxpby_lanes<W>(ca, s, cb, t, r, n); });
        for (int l = 0; l < W; ++l) {
            if (!active[l]) {
                continue;
            }
            if (early[l]) {
                finish(l, iter[l] + 1, s_norm[l], true,
                       FailureClass::converged);
            } else if (tt0[l]) {
                finish(l, iter[l] + 1, s_norm[l], false,
                       FailureClass::breakdown_omega);
            } else {
                r_norm[l] = recurrence_norm(
                    s_norm[l] * s_norm[l] - 2 * omega[l] * t_s[l] +
                    omega[l] * omega[l] * t_t[l]);
                rho_old[l] = rho[l];
                rho[l] = s_rhat[l] - omega[l] * t_rhat[l];
                ++iter[l];
                if (history != nullptr) {
                    history->record(sys[l], iter[l], r_norm[l]);
                }
            }
        }
    }
}

/// Runs one thread's lockstep CG group to queue exhaustion (same lane
/// protocol as `bicgstab_lockstep`; lane semantics match `cg_kernel`).
template <int W, bool UseJacobi>
void cg_lockstep(const LaneSource& a, const EllSlabPattern& pattern,
                 const BatchVector<real_type>& b, BatchVector<real_type>& x,
                 bool zero_guess, StopCriterion stop, int max_iters,
                 Workspace& ws, std::atomic<size_type>& next_system,
                 BatchLogStage& stage, int thread,
                 obs::ConvergenceHistory* history = nullptr)
{
    const index_type n = pattern.rows;
    const size_type nbatch = a.num_batch;

    real_type* r = ws.slot(0).data;
    real_type* z = ws.slot(1).data;
    real_type* p = ws.slot(2).data;
    real_type* q = ws.slot(3).data;
    real_type* xg = ws.slot(4).data;
    real_type* bg = ws.slot(5).data;
    real_type* inv_diag = ws.slot(6).data;
    real_type* slab = ws.slot(lockstep_cg_base_slots).data;
    const EllSlabView<real_type> av{n, pattern.nnz_per_row,
                                    pattern.col_idxs.data(), slab, W};

    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};
    real_type rz[W] = {};

    auto finish = [&](int l, int iters, real_type rn, bool conv,
                      FailureClass fc) {
        stage.record(thread, sys[l], iters, rn, conv, fc);
        if (history != nullptr) {
            history->finalize(sys[l], iters, rn, conv);
        }
        unpack_lane(ConstLaneGroupView<real_type>(xg, n, W), l,
                    x.entry(sys[l]));
        active[l] = false;
        act[l] = real_type{0};
    };

    auto refill = [&](int l) -> bool {
        const size_type i = next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        sys[l] = i;
        a.pack(i, pattern, slab, UseJacobi ? inv_diag : nullptr, W, l);
        pack_lane(b.entry(i), LaneGroupView<real_type>{bg, n, W}, l);
        b_norm[l] = lockstep::lane_nrm2(bg, n, W, l);
        if (zero_guess) {
            zero_lane(LaneGroupView<real_type>{xg, n, W}, l);
        } else {
            pack_lane(ConstVecView<real_type>(x.entry(i)),
                      LaneGroupView<real_type>{xg, n, W}, l);
        }
        // r = b - A x; z = M^-1 r; p = z; rz = r . z.
        spmv_slab_lane(av, l, xg, r);
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            const std::size_t idx = static_cast<std::size_t>(j) * W + l;
            const real_type rj = bg[idx] - r[idx];
            r[idx] = rj;
            sum += rj * rj;
            const real_type zj =
                UseJacobi ? inv_diag[idx] * rj : rj;
            z[idx] = zj;
            p[idx] = zj;
        }
        r_norm[l] = std::sqrt(sum);
        r0[l] = r_norm[l];
        rz[l] = lockstep::lane_dot(r, z, n, W, l);
        iter[l] = 0;
        active[l] = true;
        act[l] = real_type{1};
        if (history != nullptr) {
            history->record(i, 0, r_norm[l]);
        }
        return true;
    };

    while (true) {
        for (int l = 0; l < W; ++l) {
            for (;;) {
                if (!active[l]) {
                    if (!refill(l)) {
                        break;
                    }
                }
                if (stop.done(r_norm[l], b_norm[l])) {
                    finish(l, iter[l], r_norm[l], true,
                           FailureClass::converged);
                    continue;
                }
                if (!std::isfinite(r_norm[l])) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::non_finite);
                    continue;
                }
                if (iter[l] >= max_iters) {
                    finish(l, max_iters, r_norm[l], false,
                           classify_exhausted(r_norm[l], r0[l], false));
                    continue;
                }
                if (rz[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                    continue;
                }
                break;
            }
        }
        bool any_active = false;
        for (int l = 0; l < W; ++l) {
            any_active = any_active || active[l];
        }
        if (!any_active) {
            break;
        }

        real_type ca[W];
        real_type cb[W];
        real_type cc[W];
        real_type alpha[W] = {};

        // q = A p; pq = p . q; pq <= 0 means CG is not applicable.
        obs::traced(obs::Phase::spmv, "spmv", [&] { spmv_lanes<W>(av, p, q); });
        real_type pq[W];
        obs::traced(obs::Phase::reduction, "reduction", [&] { blas::dot_lanes<W>(p, q, n, pq); });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                if (pq[l] <= real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                } else {
                    alpha[l] = rz[l] / pq[l];
                }
            }
        }
        // x += alpha * p.
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? alpha[l] : real_type{0};
            cb[l] = real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p, cb, p, cc, xg, n);
        });
        // r -= alpha * q fused with ||r||.
        real_type rn_new[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? -alpha[l] : real_type{0};
            cb[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy_nrm2_lanes<W>(ca, q, cb, r, n, rn_new);
        });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                r_norm[l] = rn_new[l];
            }
        }
        // z = M^-1 r; beta = (r . z)_new / rz; p = z + beta * p.
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, r, act, z, n);
            } else {
                blas::copy_lanes<W>(r, act, z, n);
            }
        });
        real_type rz_new[W];
        obs::traced(obs::Phase::reduction, "reduction",
                    [&] { blas::dot_lanes<W>(r, z, n, rz_new); });
        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                beta[l] = rz_new[l] / rz[l];
            }
        }
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = real_type{0};
            cc[l] = active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, z, cb, z, cc, p, n);
        });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                rz[l] = rz_new[l];
                ++iter[l];
                if (history != nullptr) {
                    history->record(sys[l], iter[l], r_norm[l]);
                }
            }
        }
    }
}

/// Pipelined lockstep CG: the lane protocol of `cg_lockstep` with the
/// reduction structure of `pipelined_cg_kernel`. The p.q and residual-norm
/// reductions merge into one dot3_nrm2 sweep and the r-update sweep loses
/// its fused norm (the recurrence supplies it), leaving two lane-scalar
/// synchronization points per iteration (after the merged reduction and
/// after the r.z dot) instead of three. alpha / beta are built from the
/// same dot values as the classic kernel, so the lane iterates evolve
/// bit-identically; only stop decisions ride the recurrence norm.
template <int W, bool UseJacobi>
void cg_lockstep_pipelined(const LaneSource& a,
                           const EllSlabPattern& pattern,
                           const BatchVector<real_type>& b,
                           BatchVector<real_type>& x, bool zero_guess,
                           StopCriterion stop, int max_iters, Workspace& ws,
                           std::atomic<size_type>& next_system,
                           BatchLogStage& stage, int thread,
                           obs::ConvergenceHistory* history = nullptr)
{
    const index_type n = pattern.rows;
    const size_type nbatch = a.num_batch;

    real_type* r = ws.slot(0).data;
    real_type* z = ws.slot(1).data;
    real_type* p = ws.slot(2).data;
    real_type* q = ws.slot(3).data;
    real_type* xg = ws.slot(4).data;
    real_type* bg = ws.slot(5).data;
    real_type* inv_diag = ws.slot(6).data;
    real_type* slab = ws.slot(lockstep_cg_base_slots).data;
    const EllSlabView<real_type> av{n, pattern.nnz_per_row,
                                    pattern.col_idxs.data(), slab, W};

    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};
    real_type rz[W] = {};

    auto finish = [&](int l, int iters, real_type rn, bool conv,
                      FailureClass fc) {
        stage.record(thread, sys[l], iters, rn, conv, fc);
        if (history != nullptr) {
            history->finalize(sys[l], iters, rn, conv);
        }
        unpack_lane(ConstLaneGroupView<real_type>(xg, n, W), l,
                    x.entry(sys[l]));
        active[l] = false;
        act[l] = real_type{0};
    };

    auto refill = [&](int l) -> bool {
        const size_type i = next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        sys[l] = i;
        a.pack(i, pattern, slab, UseJacobi ? inv_diag : nullptr, W, l);
        pack_lane(b.entry(i), LaneGroupView<real_type>{bg, n, W}, l);
        b_norm[l] = lockstep::lane_nrm2(bg, n, W, l);
        if (zero_guess) {
            zero_lane(LaneGroupView<real_type>{xg, n, W}, l);
        } else {
            pack_lane(ConstVecView<real_type>(x.entry(i)),
                      LaneGroupView<real_type>{xg, n, W}, l);
        }
        // r = b - A x; z = M^-1 r; p = z; rz = r . z.
        spmv_slab_lane(av, l, xg, r);
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            const std::size_t idx = static_cast<std::size_t>(j) * W + l;
            const real_type rj = bg[idx] - r[idx];
            r[idx] = rj;
            sum += rj * rj;
            const real_type zj =
                UseJacobi ? inv_diag[idx] * rj : rj;
            z[idx] = zj;
            p[idx] = zj;
        }
        r_norm[l] = std::sqrt(sum);
        r0[l] = r_norm[l];
        rz[l] = lockstep::lane_dot(r, z, n, W, l);
        iter[l] = 0;
        active[l] = true;
        act[l] = real_type{1};
        if (history != nullptr) {
            history->record(i, 0, r_norm[l]);
        }
        return true;
    };

    while (true) {
        for (int l = 0; l < W; ++l) {
            for (;;) {
                if (!active[l]) {
                    if (!refill(l)) {
                        break;
                    }
                }
                if (stop.done(r_norm[l], b_norm[l])) {
                    finish(l, iter[l], r_norm[l], true,
                           FailureClass::converged);
                    continue;
                }
                if (!std::isfinite(r_norm[l])) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::non_finite);
                    continue;
                }
                if (iter[l] >= max_iters) {
                    finish(l, max_iters, r_norm[l], false,
                           classify_exhausted(r_norm[l], r0[l], false));
                    continue;
                }
                if (rz[l] == real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                    continue;
                }
                break;
            }
        }
        bool any_active = false;
        for (int l = 0; l < W; ++l) {
            any_active = any_active || active[l];
        }
        if (!any_active) {
            break;
        }

        real_type ca[W];
        real_type cb[W];
        real_type cc[W];
        real_type alpha[W] = {};

        // q = A p, then the merged reduction: q.p, q.q, q.r and the
        // measured ||r|| in one sweep.
        obs::traced(obs::Phase::spmv, "spmv", [&] { spmv_lanes<W>(av, p, q); });
        real_type pq[W];
        real_type qq[W];
        real_type qr[W];
        real_type r_meas[W];
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            blas::dot3_nrm2_lanes<W>(q, p, r, n, pq, qq, qr, r_meas);
        });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                if (pq[l] <= real_type{0}) {
                    finish(l, iter[l], r_norm[l], false,
                           FailureClass::breakdown_rho);
                } else {
                    alpha[l] = rz[l] / pq[l];
                }
            }
        }
        // x += alpha * p.
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? alpha[l] : real_type{0};
            cb[l] = real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p, cb, p, cc, xg, n);
        });
        // r -= alpha * q, PLAIN (the norm comes from the recurrence,
        // re-anchored at this iteration's measured ||r||).
        for (int l = 0; l < W; ++l) {
            ca[l] = active[l] ? -alpha[l] : real_type{0};
            cb[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::zaxpby_lanes<W>(ca, q, cb, r, r, n); });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                r_norm[l] = recurrence_norm(
                    r_meas[l] * r_meas[l] - 2 * alpha[l] * qr[l] +
                    alpha[l] * alpha[l] * qq[l]);
            }
        }
        // z = M^-1 r; beta = (r . z)_new / rz; p = z + beta * p.
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            if constexpr (UseJacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, r, act, z, n);
            } else {
                blas::copy_lanes<W>(r, act, z, n);
            }
        });
        real_type rz_new[W];
        obs::traced(obs::Phase::reduction, "reduction",
                    [&] { blas::dot_lanes<W>(r, z, n, rz_new); });
        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                beta[l] = rz_new[l] / rz[l];
            }
        }
        for (int l = 0; l < W; ++l) {
            ca[l] = act[l];
            cb[l] = real_type{0};
            cc[l] = active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, z, cb, z, cc, p, n);
        });
        for (int l = 0; l < W; ++l) {
            if (active[l]) {
                rz[l] = rz_new[l];
                ++iter[l];
                if (history != nullptr) {
                    history->record(sys[l], iter[l], r_norm[l]);
                }
            }
        }
    }
}

/// Batch driver for the lockstep path: builds the shared slab pattern,
/// sizes the (separate, rows*W-length) workspace pool, and runs one
/// lockstep group per OpenMP thread against a shared work queue. Per-entry
/// results are staged per thread and merged into the log afterwards.
template <int W, bool UseJacobi, bool UseCg, bool Pipelined,
          typename SourceBatch>
void run_batch_lockstep(const SourceBatch& a, const BatchVector<real_type>& b,
                        BatchVector<real_type>& x, bool zero_guess,
                        StopCriterion stop, int max_iters, WorkspacePool& pool,
                        BatchLog& log,
                        obs::ConvergenceHistory* history = nullptr)
{
    const EllSlabPattern pattern = make_slab_pattern(a);
    const int nthreads = lockstep::max_threads();
    const int base_slots =
        UseCg ? lockstep_cg_base_slots : lockstep_bicgstab_base_slots;
    pool.require(nthreads, pattern.rows * W,
                 base_slots + pattern.nnz_per_row);

    const LaneSource source = lane_source(a);
    BatchLogStage stage(nthreads);
    std::atomic<size_type> next_system{0};
    std::exception_ptr failure;
#pragma omp parallel
    {
        try {
            const int thread = lockstep::this_thread();
            // One span per thread covering its whole queue drain: the
            // lane-group analogue of the scalar path's per-entry span.
            obs::ScopedSpan group_span("lockstep_group", "solver", W);
            auto& ws = pool.at(thread);
            if constexpr (UseCg && Pipelined) {
                cg_lockstep_pipelined<W, UseJacobi>(
                    source, pattern, b, x, zero_guess, stop, max_iters, ws,
                    next_system, stage, thread, history);
            } else if constexpr (UseCg) {
                cg_lockstep<W, UseJacobi>(source, pattern, b, x,
                                          zero_guess, stop, max_iters, ws,
                                          next_system, stage, thread,
                                          history);
            } else if constexpr (Pipelined) {
                bicgstab_lockstep_pipelined<W, UseJacobi>(
                    source, pattern, b, x, zero_guess, stop, max_iters, ws,
                    next_system, stage, thread, history);
            } else {
                bicgstab_lockstep<W, UseJacobi>(source, pattern, b, x,
                                                zero_guess, stop, max_iters,
                                                ws, next_system, stage,
                                                thread, history);
            }
        } catch (...) {
#pragma omp critical(bsis_lockstep_failure)
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

}  // namespace bsis
