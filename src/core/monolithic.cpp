#include "core/monolithic.hpp"

#include "core/bicgstab.hpp"
#include "core/workspace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bsis {

void spmv(const BlockDiagView& a, ConstVecView<real_type> x,
          VecView<real_type> y)
{
    const index_type n = a.batch->rows();
    BSIS_ASSERT(x.len == a.rows_total() && y.len == a.rows_total());
    for (size_type blk = 0; blk < a.batch->num_batch(); ++blk) {
        const auto av = a.batch->entry(blk);
        const ConstVecView<real_type> xb{
            x.data + static_cast<std::size_t>(blk) * n, n};
        const VecView<real_type> yb{
            const_cast<real_type*>(y.data) +
                static_cast<std::size_t>(blk) * n,
            n};
        spmv(av, xb, yb);
    }
}

void extract_diagonal(const BlockDiagView& a, VecView<real_type> diag)
{
    const index_type n = a.batch->rows();
    BSIS_ASSERT(diag.len == a.rows_total());
    for (size_type blk = 0; blk < a.batch->num_batch(); ++blk) {
        const VecView<real_type> db{
            diag.data + static_cast<std::size_t>(blk) * n, n};
        extract_diagonal(a.batch->entry(blk), db);
    }
}

MonolithicResult solve_monolithic(const BatchCsr<real_type>& a,
                                  const BatchVector<real_type>& b,
                                  BatchVector<real_type>& x,
                                  const SolverSettings& settings)
{
    BSIS_ENSURE_DIMS(a.num_batch() == b.num_batch() &&
                         a.num_batch() == x.num_batch(),
                     "matrix/rhs/solution batch counts must match");
    BSIS_ENSURE_ARG(settings.solver == SolverType::bicgstab,
                    "monolithic mode implements BiCGStab only");
    BSIS_ENSURE_ARG(settings.precond != PrecondType::block_jacobi,
                    "monolithic mode supports identity and Jacobi only");

    const BlockDiagView global{&a};
    const index_type n_total = global.rows_total();
    const ConstVecView<real_type> b_all{b.data(),
                                        static_cast<index_type>(b.size())};
    VecView<real_type> x_all{x.data(), static_cast<index_type>(x.size())};
    BSIS_ENSURE_DIMS(b_all.len == n_total && x_all.len == n_total,
                     "vector sizes must match the global operator");
    if (!settings.use_initial_guess) {
        x.fill(real_type{0});
    }

    Workspace ws(n_total,
                 bicgstab_work_vectors +
                     precond_work_vectors(settings.precond));

    MonolithicResult result;
    Timer timer;
    const StopCriterion stop{settings.stop, settings.tolerance};
    EntryResult entry;
    if (settings.precond == PrecondType::jacobi) {
        JacobiPrec prec;
        prec.generate(global, ws.slot(bicgstab_work_vectors));
        entry = bicgstab_kernel(global, b_all, x_all, prec, stop,
                                settings.max_iterations, ws);
    } else {
        IdentityPrec prec;
        entry = bicgstab_kernel(global, b_all, x_all, prec, stop,
                                settings.max_iterations, ws);
    }
    result.wall_seconds = timer.seconds();
    result.iterations = entry.iterations;
    result.residual_norm = entry.residual_norm;
    result.converged = entry.converged;
    return result;
}

}  // namespace bsis
