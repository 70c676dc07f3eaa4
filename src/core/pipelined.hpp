// Pipelined batched BiCGStab / CG kernels (Rupp et al., "Pipelined
// Iterative Solvers with Kernel Fusion for GPUs").
//
// The classic fused kernels still stop at 3 (BiCGStab) / 3 (CG) reduction
// points per iteration; on the lockstep and GPU paths every one of those
// is a lane-group synchronization. The pipelined variants restructure the
// recurrences so the quantities the NEXT reduction would measure are
// by-products of reductions already in flight:
//
//   BiCGStab: the end-of-iteration dual dot (t.t, t.s) widens into a
//   dot4 over {t, s, r_hat} that also yields s.r_hat and t.r_hat, from
//   which rho_next = s.r_hat - omega * t.r_hat (exact identity for
//   r_next = s - omega t) and ||r_next||^2 = ||s||^2 - 2 omega t.s +
//   omega^2 t.t follow in registers -- the standalone r.r_hat dot and the
//   residual-norm reduction disappear.
//
//   CG: the p.q dot widens into dot3_nrm2 over {q, p, r} yielding q.q,
//   q.r and a freshly measured ||r||, giving ||r - alpha q||^2 = ||r||^2
//   - 2 alpha q.r + alpha^2 q.q; the r.z dot folds into the
//   preconditioner sweep (Prec::apply_dot). alpha and beta are computed
//   from the SAME dot values as the classic kernel, so the CG iterates
//   themselves evolve bit-identically -- only the stopping decisions ride
//   on the recurrence norm.
//
// Drift policy: every recurrence bridges exactly ONE iteration from
// quantities measured in that same iteration (||s|| is measured by the
// s-update sweep, ||r|| by the CG reduction sweep), so recurrence rounding
// never compounds across iterations; the drift tests bound the gap to the
// true residual at exit. Failure detection is kept structurally identical
// to the classic kernels (done -> non_finite -> breakdown rho/omega split,
// classify_exhausted at the iteration cap); a non-finite recurrence value
// is mapped to NaN rather than clamped so the non_finite check fires
// exactly as it does on a measured norm.
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "blas/kernels.hpp"
#include "core/stop.hpp"
#include "core/workspace.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// sqrt of a recurrence-maintained squared norm: tiny negative values
/// (cancellation) clamp to zero, but non-finite values must stay
/// non-finite so the solver's NaN detection behaves exactly as with a
/// measured norm.
inline real_type recurrence_norm(real_type squared)
{
    if (squared > real_type{0}) {
        return std::sqrt(squared);
    }
    return std::isfinite(squared)
               ? real_type{0}
               : std::numeric_limits<real_type>::quiet_NaN();
}

/// Pipelined BiCGStab: same workspace layout, history contract, and
/// failure classification structure as `bicgstab_kernel`, with the
/// per-iteration standalone reductions collapsed from three to two (the
/// r_hat.v dot and one dot4 sweep). The rho and residual-norm recurrences
/// each bridge a single iteration, so the iterates track the classic
/// kernel's to rounding and stopping decisions agree within one iteration.
/// Kept out of line for the same reason as `bicgstab_kernel`, which shares
/// its call site.
template <typename MatrixView, typename Prec>
[[gnu::noinline]]
EntryResult pipelined_bicgstab_kernel(
    const MatrixView& a, ConstVecView<real_type> b, VecView<real_type> x,
    const Prec& prec, StopCriterion stop, int max_iters, Workspace& ws,
    int work_offset = 0, std::vector<real_type>* history = nullptr)
{
    auto r = ws.slot(work_offset + 0);
    auto r_hat = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto p_hat = ws.slot(work_offset + 3);
    auto v = ws.slot(work_offset + 4);
    auto s = ws.slot(work_offset + 5);
    auto s_hat = ws.slot(work_offset + 6);
    auto t = ws.slot(work_offset + 7);

    const real_type b_norm = blas::nrm2(b);

    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    real_type r_norm = obs::traced(obs::Phase::update, "update", [&] {
        return blas::zaxpby_nrm2(real_type{1}, b, real_type{-1},
                                 ConstVecView<real_type>(r), r);
    });
    blas::copy(ConstVecView<real_type>(r), r_hat);
    blas::fill(p, real_type{0});
    blas::fill(v, real_type{0});

    const real_type r0 = r_norm;
    real_type rho_old = 1;
    real_type omega = 1;
    real_type alpha = 1;
    // The first iteration's rho is measured directly (r_hat = r here, so
    // this matches the classic kernel's iteration-0 dot bit for bit);
    // every later rho comes from the dot4 recurrence.
    real_type rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
        return blas::dot(ConstVecView<real_type>(r),
                         ConstVecView<real_type>(r_hat));
    });

    if (history != nullptr) {
        history->clear();
        history->push_back(r_norm);
    }
    for (int iter = 0; iter < max_iters; ++iter) {
        if (stop.done(r_norm, b_norm)) {
            return {iter, r_norm, true, FailureClass::converged};
        }
        if (!std::isfinite(r_norm)) {
            return {iter, r_norm, false, FailureClass::non_finite};
        }
        if (rho == real_type{0} || omega == real_type{0}) {
            // Serious breakdown: the Krylov space cannot be extended.
            return {iter, r_norm, false,
                    rho == real_type{0} ? FailureClass::breakdown_rho
                                        : FailureClass::breakdown_omega};
        }
        const real_type beta = (rho / rho_old) * (alpha / omega);
        // p = r + beta * (p - omega * v) in ONE sweep.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz(real_type{1}, ConstVecView<real_type>(r),
                           -beta * omega, ConstVecView<real_type>(v), beta,
                           p);
        });
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(p), p_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p_hat), v); });
        const real_type r_hat_v = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r_hat),
                             ConstVecView<real_type>(v));
        });
        if (r_hat_v == real_type{0}) {
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        alpha = rho / r_hat_v;
        // s = r - alpha * v fused with ||s|| (measured, anchoring the
        // residual-norm recurrence below).
        const real_type s_norm = obs::traced(obs::Phase::update, "update", [&] {
            return blas::zaxpby_nrm2(real_type{1},
                                     ConstVecView<real_type>(r), -alpha,
                                     ConstVecView<real_type>(v), s);
        });
        if (stop.done(s_norm, b_norm)) {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
            return {iter + 1, s_norm, true, FailureClass::converged};
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(s), s_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(s_hat), t); });
        // The pipelined quad reduction: t.t and t.s (bit-identical to the
        // classic dual dot) plus s.r_hat and t.r_hat for the recurrences.
        real_type t_t;
        real_type t_s;
        real_type s_rhat;
        real_type t_rhat;
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            blas::dot4(ConstVecView<real_type>(t), ConstVecView<real_type>(s),
                       ConstVecView<real_type>(r_hat), t_t, t_s, s_rhat,
                       t_rhat);
        });
        if (t_t == real_type{0}) {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
            r_norm = s_norm;
            const bool done = stop.done(r_norm, b_norm);
            return {iter + 1, r_norm, done,
                    done ? FailureClass::converged
                         : FailureClass::breakdown_omega};
        }
        omega = t_s / t_t;
        // x = x + alpha * p_hat + omega * s_hat in ONE sweep.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz(alpha, ConstVecView<real_type>(p_hat), omega,
                           ConstVecView<real_type>(s_hat), real_type{1}, x);
        });
        // r = s - omega * t -- no norm fused in: ||r|| and the next rho
        // come from the dot4 results, which is the whole point.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::zaxpby(real_type{1}, ConstVecView<real_type>(s), -omega,
                         ConstVecView<real_type>(t), r);
        });
        r_norm = recurrence_norm(s_norm * s_norm -
                                 2 * omega * t_s + omega * omega * t_t);
        rho_old = rho;
        rho = s_rhat - omega * t_rhat;
        if (history != nullptr) {
            history->push_back(r_norm);
        }
    }
    {
        const bool done = stop.done(r_norm, b_norm);
        return {max_iters, r_norm, done,
                classify_exhausted(r_norm, r0, done)};
    }
}

/// Pipelined CG: one dot3_nrm2 reduction sweep per iteration; the r.z dot
/// folds into the preconditioner sweep via Prec::apply_dot. alpha and
/// beta are built from the same dot values as `cg_kernel`, so the iterates
/// are bit-identical to the classic kernel's and only the stop decisions
/// (recurrence norm vs measured norm) may differ by one iteration.
template <typename MatrixView, typename Prec>
EntryResult pipelined_cg_kernel(const MatrixView& a,
                                ConstVecView<real_type> b,
                                VecView<real_type> x, const Prec& prec,
                                StopCriterion stop, int max_iters,
                                Workspace& ws, int work_offset = 0,
                                std::vector<real_type>* history = nullptr)
{
    auto r = ws.slot(work_offset + 0);
    auto z = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto q = ws.slot(work_offset + 3);

    const real_type b_norm = blas::nrm2(b);

    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    blas::axpby(real_type{1}, b, real_type{-1}, r);
    real_type r_norm = obs::traced(
        obs::Phase::reduction, "reduction",
        [&] { return blas::nrm2(ConstVecView<real_type>(r)); });

    real_type rz = obs::traced(
        obs::Phase::precond, "precond_apply",
        [&] { return prec.apply_dot(ConstVecView<real_type>(r), z); });
    blas::copy(ConstVecView<real_type>(z), p);
    const real_type r0 = r_norm;

    if (history != nullptr) {
        history->clear();
        history->push_back(r_norm);
    }
    for (int iter = 0; iter < max_iters; ++iter) {
        if (stop.done(r_norm, b_norm)) {
            return {iter, r_norm, true, FailureClass::converged};
        }
        if (!std::isfinite(r_norm)) {
            return {iter, r_norm, false, FailureClass::non_finite};
        }
        if (rz == real_type{0}) {
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p), q); });
        // q.p, q.q, q.r and the measured ||r|| in one sweep: everything
        // the iteration's scalars and the residual-norm recurrence need.
        real_type pq;
        real_type qq;
        real_type qr;
        real_type r_meas;
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            blas::dot3_nrm2(ConstVecView<real_type>(q),
                            ConstVecView<real_type>(p),
                            ConstVecView<real_type>(r), pq, qq, qr, r_meas);
        });
        if (pq <= real_type{0}) {
            // Indefinite matrix: CG is not applicable.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        const real_type alpha = rz / pq;
        blas::axpy(alpha, ConstVecView<real_type>(p), x);
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(-alpha, ConstVecView<real_type>(q), r);
        });
        // ||r - alpha q||^2 re-anchored at this iteration's measured
        // ||r||, so recurrence rounding cannot compound.
        r_norm = recurrence_norm(r_meas * r_meas - 2 * alpha * qr +
                                 alpha * alpha * qq);
        const real_type rz_new = obs::traced(
            obs::Phase::precond, "precond_apply",
            [&] { return prec.apply_dot(ConstVecView<real_type>(r), z); });
        const real_type beta = rz_new / rz;
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpby(real_type{1}, ConstVecView<real_type>(z), beta, p);
        });
        rz = rz_new;
        if (history != nullptr) {
            history->push_back(r_norm);
        }
    }
    {
        const bool done = stop.done(r_norm, b_norm);
        return {max_iters, r_norm, done,
                classify_exhausted(r_norm, r0, done)};
    }
}

}  // namespace bsis
