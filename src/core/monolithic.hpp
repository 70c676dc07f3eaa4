// Monolithic block-diagonal solve -- the design alternative the paper
// rejects in Section II ("One solution ... would be to assemble them into
// block-diagonal matrices with sparse diagonal blocks ... internal
// experiments have shown that such a method is slower than the proposed
// batched iterative solvers").
//
// All systems of the batch are assembled into one global block-diagonal
// operator and solved with a single BiCGStab iteration: the dot products
// couple the blocks (global synchronization points), and the iteration
// count is governed by the hardest system in the batch. The ablation
// benchmark compares this against the independent batched solves.
#pragma once

#include "blas/batch_vector.hpp"
#include "core/logger.hpp"
#include "core/solver.hpp"
#include "matrix/batch_csr.hpp"
#include "util/types.hpp"

namespace bsis {

/// View of a whole batch as one block-diagonal matrix of order
/// num_batch * rows.
struct BlockDiagView {
    const BatchCsr<real_type>* batch = nullptr;

    index_type rows_total() const
    {
        return static_cast<index_type>(batch->num_batch()) * batch->rows();
    }
};

/// y := A x over the global block-diagonal operator.
void spmv(const BlockDiagView& a, ConstVecView<real_type> x,
          VecView<real_type> y);

/// Global diagonal extraction (scalar-Jacobi over all blocks).
void extract_diagonal(const BlockDiagView& a, VecView<real_type> diag);

/// Result of a monolithic solve: one global iteration count.
struct MonolithicResult {
    int iterations = 0;
    real_type residual_norm = 0.0;
    bool converged = false;
    double wall_seconds = 0.0;
};

/// Solves the whole batch as one block-diagonal BiCGStab system. The
/// stopping criterion of `settings` (absolute or relative) is applied to
/// the GLOBAL residual norm; with an absolute tolerance this forces every
/// block to iterate until the worst block has converged. BiCGStab with
/// identity or Jacobi preconditioning only: any other solver or
/// block-Jacobi throws BadArgument.
MonolithicResult solve_monolithic(const BatchCsr<real_type>& a,
                                  const BatchVector<real_type>& b,
                                  BatchVector<real_type>& x,
                                  const SolverSettings& settings);

}  // namespace bsis
