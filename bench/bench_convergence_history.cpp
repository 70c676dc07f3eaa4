// Supplementary to Fig. 2 / Table III: the per-iteration residual decay of
// the batched BiCGStab on one ion and one electron system (the per-system
// logging capability of the paper's Listing 1 LogType). The ion residual
// collapses in a handful of iterations (spectrum clustered at 1); the
// electron takes ~30 with the characteristic BiCGStab irregularity.
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/bicgstab.hpp"
#include "core/precond.hpp"
#include "core/stop.hpp"

int main()
{
    using namespace bsis;
    bench::XgcBatch problem(2);  // one node: ion (0) + electron (1)
    auto ell = to_ell(problem.a);

    Table table({"iteration", "ion_residual", "electron_residual"});
    std::vector<std::vector<real_type>> histories(2);
    Workspace ws(problem.a.rows(), bicgstab_work_vectors + 1);
    for (size_type sys = 0; sys < 2; ++sys) {
        BatchVector<real_type> x(1, problem.a.rows());
        JacobiPrec prec;
        prec.generate(ell.entry(sys), ws.slot(bicgstab_work_vectors));
        const auto result = bicgstab_kernel(
            ell.entry(sys), problem.rhs().entry(sys), x.entry(0), prec,
            StopCriterion{StopType::abs_residual, 1e-10}, 500, ws, 0,
            &histories[static_cast<std::size_t>(sys)]);
        std::cout << (sys == 0 ? "ion" : "electron") << ": "
                  << result.iterations << " iterations, final residual "
                  << result.residual_norm << "\n";
    }
    const std::size_t len =
        std::max(histories[0].size(), histories[1].size());
    for (std::size_t it = 0; it < len; ++it) {
        table.new_row().add(static_cast<std::int64_t>(it));
        for (const auto& h : histories) {
            if (it < h.size()) {
                table.add(h[it], 6);
            } else {
                table.add("-");
            }
        }
    }
    bench::emit("convergence_history",
                "Residual decay of batched BiCGStab on one ion and one "
                "electron system (abs tol 1e-10, zero guess)",
                table);
    return 0;
}
