// Batched (preconditioned) Richardson iteration kernel.
//
// The simplest member of the solver family: x += omega * M^-1 r. Useful as
// a smoother and as the baseline iterative method in the solver-comparison
// example.
#pragma once

#include <cmath>
#include <vector>

#include "blas/kernels.hpp"
#include "core/stop.hpp"
#include "core/workspace.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, t.
inline constexpr int richardson_work_vectors = 2;

/// `history`, when non-null, receives the residual norm at the top of
/// every iteration (same contract as `bicgstab_kernel`).
template <typename MatrixView, typename Prec>
EntryResult richardson_kernel(const MatrixView& a, ConstVecView<real_type> b,
                              VecView<real_type> x, const Prec& prec,
                              StopCriterion stop, int max_iters, Workspace& ws,
                              real_type omega = real_type{1},
                              int work_offset = 0,
                              std::vector<real_type>* history = nullptr)
{
    auto r = ws.slot(work_offset + 0);
    auto t = ws.slot(work_offset + 1);

    const real_type b_norm = blas::nrm2(b);
    real_type r0 = 0;
    if (history != nullptr) {
        history->clear();
    }
    for (int iter = 0; iter < max_iters; ++iter) {
        obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
        blas::axpby(real_type{1}, b, real_type{-1}, r);
        const real_type r_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(r));
        });
        if (iter == 0) {
            r0 = r_norm;
        }
        if (history != nullptr) {
            history->push_back(r_norm);
        }
        if (stop.done(r_norm, b_norm)) {
            return {iter, r_norm, true, FailureClass::converged};
        }
        if (!std::isfinite(r_norm)) {
            return {iter, r_norm, false, FailureClass::non_finite};
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(r), t); });
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpy(omega, ConstVecView<real_type>(t), x); });
    }
    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    blas::axpby(real_type{1}, b, real_type{-1}, r);
    const real_type r_norm = obs::traced(
        obs::Phase::reduction, "reduction",
        [&] { return blas::nrm2(ConstVecView<real_type>(r)); });
    if (history != nullptr) {
        history->push_back(r_norm);
    }
    const bool done = stop.done(r_norm, b_norm);
    return {max_iters, r_norm, done, classify_exhausted(r_norm, r0, done)};
}

}  // namespace bsis
