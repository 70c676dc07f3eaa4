// Loops of the collision step that run over the OpenMP team.
#pragma once

#include <exception>

#include "util/types.hpp"

namespace bsis::xgc {

/// Runs `body(i)` for every i in [0, n) over the OpenMP team, handing out
/// chunks of `chunk` indices dynamically. Each `body(i)` must write only
/// its own outputs, so results do not depend on the thread count.
/// Exceptions cannot unwind through an OpenMP region: the first one is
/// captured and rethrown after the loop.
template <typename Body>
void team_for(size_type n, int chunk, const Body& body)
{
    std::exception_ptr failure;
#pragma omp parallel for schedule(dynamic, chunk)
    for (size_type i = 0; i < n; ++i) {
        try {
            body(i);
        } catch (...) {
#pragma omp critical(bsis_xgc_team_failure)
            {
                if (!failure) {
                    failure = std::current_exception();
                }
            }
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

}  // namespace bsis::xgc
