// Stopping criteria for the batched iterative solvers.
//
// Section IV-B of the paper: each system of the batch is monitored
// individually and terminates independently. The paper plugs the
// criterion into its GPU kernel as a template parameter (Listing 1
// `StopType`). On the host the check is one scalar comparison per
// iteration, so it is a runtime value here instead: a template parameter
// would double every kernel instantiation for no measurable gain. The
// comparison itself is the same either way, so stopping decisions do not
// depend on how the criterion is passed.
#pragma once

#include "util/types.hpp"

namespace bsis {

/// Runtime selector of the stopping criterion.
enum class StopType {
    /// Stop when the residual 2-norm falls below an absolute threshold.
    /// This is the criterion used throughout the paper's evaluation
    /// (tau = 1e-10).
    abs_residual,
    /// Stop when the residual has been reduced by the given relative
    /// factor compared to the right-hand side (GINKGO's
    /// SimpleRelResidual).
    rel_residual,
};

/// The stopping criterion every solver kernel checks at the top of each
/// iteration.
struct StopCriterion {
    StopType type = StopType::abs_residual;
    /// Absolute threshold, or relative reduction factor for
    /// `StopType::rel_residual`.
    real_type tol = 0;

    /// True when the system with residual norm `r_norm` has converged;
    /// `b_norm` (the right-hand-side norm) is read only for relative
    /// stopping.
    bool done(real_type r_norm, real_type b_norm) const
    {
        return type == StopType::abs_residual ? r_norm < tol
                                              : r_norm < tol * b_norm;
    }
};

}  // namespace bsis
