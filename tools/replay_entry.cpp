// Replay one captured failure bundle through every execution path.
//
// A flight-recorder bundle (see obs/flight_recorder.hpp) holds everything
// needed to re-run a single failed system offline: matrix, right-hand
// side, initial guess, and the solver composition that failed. This tool
// loads a bundle, re-runs the system through the scalar OpenMP path, the
// SIMD batch-lockstep path, and the simulated-GPU executor, prints the
// failure classification and residual trajectory of each side by side,
// and exits nonzero when the paths disagree on the failure class -- a
// disagreement means a path-specific numerical bug, which is exactly what
// the cross-path replay is for.
//
//   replay_entry BUNDLE_DIR [options]
//   replay_entry --selftest DIR     end-to-end check: synthesize a batch
//                                   with known failures, capture it, then
//                                   replay every bundle
//
// Options:
//   --solver=NAME    override the captured solver (bicgstab, cg, ...)
//   --precond=NAME   override the captured preconditioner
//   --format=NAME    matrix format: csr (default), ell, sellp, dense
//   --lockstep=W     lockstep width for the lockstep path (default 8)
//   --max-iters=N    override the captured iteration cap
//   --pipelined      replay with the pipelined kernel variant on every
//                    path, plus a classic-variant scalar baseline row, so
//                    the side-by-side diff covers the variant boundary
//                    (classification must agree across variants too)
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/forensics.hpp"
#include "exec/executor.hpp"
#include "matrix/conversions.hpp"
#include "obs/flight_recorder.hpp"
#include "util/table.hpp"

namespace {

using namespace bsis;

struct PathOutcome {
    std::string path;
    FailureClass failure = FailureClass::max_iters;
    int iterations = 0;
    real_type residual = 0;
    std::vector<obs::HistoryPoint> trajectory;
};

PathOutcome outcome_of(std::string path, const BatchLog& log,
                       const obs::ConvergenceHistory& history)
{
    PathOutcome out;
    out.path = std::move(path);
    out.failure = log.failure(0);
    out.iterations = log.iterations(0);
    out.residual = log.residual_norm(0);
    if (history.active()) {
        out.trajectory = history.points(0);
    }
    return out;
}

template <typename Matrix>
PathOutcome run_host_path(std::string path, const Matrix& a,
                          const BatchVector<real_type>& b,
                          const BatchVector<real_type>& x0,
                          SolverSettings settings, int lockstep_width)
{
    settings.lockstep_width = lockstep_width;
    settings.record_convergence = true;
    settings.use_initial_guess = true;  // x0 is the bundle's actual guess
    settings.flight_recorder = nullptr;
    BatchVector<real_type> x = x0;
    const auto result = solve_batch(a, b, x, settings);
    return outcome_of(std::move(path), result.log, result.history);
}

PathOutcome run_simgpu_path(const BatchCsr<real_type>& a,
                            const BatchVector<real_type>& b,
                            const BatchVector<real_type>& x0,
                            SolverSettings settings)
{
    settings.lockstep_width = 0;
    settings.record_convergence = true;
    settings.use_initial_guess = true;
    settings.flight_recorder = nullptr;
    SimGpuExecutor exec(gpusim::v100());
    BatchVector<real_type> x = x0;
    const auto report = exec.solve(a, b, x, settings);
    return outcome_of("simgpu(V100)", report.log, report.history);
}

struct ReplayOptions {
    std::string format = "csr";
    std::string solver_override;
    std::string precond_override;
    int lockstep_width = 8;
    int max_iters_override = -1;
    /// Replay with the pipelined kernels (solver-variant override); a
    /// classic-variant scalar row joins the diff as the baseline.
    bool pipelined = false;
};

/// Re-runs one bundle through all three paths. Returns true when every
/// path agrees on the failure class.
bool replay_bundle(const std::string& bundle_dir, const ReplayOptions& opt,
                   std::string* agreed_class = nullptr)
{
    const auto bundle = obs::load_bundle(bundle_dir);
    SolverSettings settings;
    if (!apply_bundle_meta(bundle.meta, settings)) {
        std::cerr << "unknown solver/precond/stop name in " << bundle_dir
                  << "/meta.json\n";
        return false;
    }
    if (!opt.solver_override.empty() &&
        !solver_from_name(opt.solver_override, settings.solver)) {
        std::cerr << "unknown solver " << opt.solver_override << '\n';
        return false;
    }
    if (!opt.precond_override.empty() &&
        !precond_from_name(opt.precond_override, settings.precond)) {
        std::cerr << "unknown preconditioner " << opt.precond_override
                  << '\n';
        return false;
    }
    if (opt.max_iters_override >= 0) {
        settings.max_iterations = opt.max_iters_override;
    }
    if (opt.pipelined) {
        settings.pipelined = true;
    }

    const auto n = static_cast<index_type>(bundle.a.rows);
    auto csr = io::from_coo({bundle.a});
    BatchVector<real_type> b(1, n);
    BatchVector<real_type> x0(1, n);
    for (index_type i = 0; i < n; ++i) {
        b.entry(0)[i] = bundle.b[static_cast<std::size_t>(i)];
        x0.entry(0)[i] = bundle.x0[static_cast<std::size_t>(i)];
    }

    std::cout << "bundle " << bundle_dir << ": system "
              << bundle.meta.system_index << ", recorded "
              << bundle.meta.failure << " after " << bundle.meta.iterations
              << " iterations (solver " << solver_name(settings.solver)
              << ", precond " << precond_name(settings.precond)
              << ", format " << opt.format
              << (opt.pipelined ? ", variant pipelined" : "") << ")\n";

    std::vector<PathOutcome> outcomes;
    if (opt.pipelined) {
        // Cross-variant baseline: the classic kernels on the scalar path.
        // Classification must agree across the variant boundary as well.
        auto classic = settings;
        classic.pipelined = false;
        outcomes.push_back(
            run_host_path("scalar-classic", csr, b, x0, classic, 0));
    }
    if (opt.format == "ell") {
        const auto ell = to_ell(csr);
        outcomes.push_back(run_host_path("scalar", ell, b, x0, settings, 0));
        outcomes.push_back(run_host_path("lockstep", ell, b, x0, settings,
                                         opt.lockstep_width));
    } else if (opt.format == "sellp") {
        const auto sellp = to_sellp(csr);
        outcomes.push_back(
            run_host_path("scalar", sellp, b, x0, settings, 0));
        outcomes.push_back(run_host_path("lockstep", sellp, b, x0, settings,
                                         opt.lockstep_width));
    } else if (opt.format == "dense") {
        const auto dense = to_dense(csr);
        outcomes.push_back(
            run_host_path("scalar", dense, b, x0, settings, 0));
        // The lockstep path covers the sparse formats only; dense falls
        // back to scalar inside the driver, so skip the duplicate run.
    } else if (opt.format == "csr") {
        outcomes.push_back(run_host_path("scalar", csr, b, x0, settings, 0));
        outcomes.push_back(run_host_path("lockstep", csr, b, x0, settings,
                                         opt.lockstep_width));
    } else {
        std::cerr << "unknown format " << opt.format
                  << " (csr, ell, sellp, dense)\n";
        return false;
    }
    outcomes.push_back(run_simgpu_path(csr, b, x0, settings));

    Table summary({"path", "class", "iterations", "residual"});
    for (const auto& o : outcomes) {
        summary.new_row()
            .add(o.path)
            .add(failure_class_name(o.failure))
            .add(o.iterations)
            .add(static_cast<double>(o.residual), 6);
    }
    summary.print(std::cout);

    // Residual-trajectory diff: one row per recorded point, the paths side
    // by side. Diverging trajectories locate WHERE two paths part ways
    // even when they agree on the final class.
    std::size_t depth = 0;
    for (const auto& o : outcomes) {
        depth = std::max(depth, o.trajectory.size());
    }
    if (depth > 0) {
        std::vector<std::string> header{"point"};
        for (const auto& o : outcomes) {
            header.push_back(o.path + "_iter");
            header.push_back(o.path + "_res");
        }
        Table diff(std::move(header));
        for (std::size_t p = 0; p < depth; ++p) {
            auto& row = diff.new_row();
            row.add(p);
            for (const auto& o : outcomes) {
                if (p < o.trajectory.size()) {
                    row.add(o.trajectory[p].iteration)
                        .add(static_cast<double>(o.trajectory[p].residual),
                             6);
                } else {
                    row.add("-").add("-");
                }
            }
        }
        std::cout << '\n';
        diff.print(std::cout);
    }

    bool agree = true;
    for (const auto& o : outcomes) {
        agree = agree && o.failure == outcomes.front().failure;
    }
    if (!agree) {
        std::cout << "\nPATH DISAGREEMENT: the execution paths classify "
                     "this system differently\n";
    } else if (agreed_class != nullptr) {
        *agreed_class = failure_class_name(outcomes.front().failure);
    }
    return agree;
}

/// End-to-end exercise of the forensics loop: seed a batch with known
/// failure modes, capture the non-converged systems, then replay every
/// bundle and demand cross-path agreement and reproduction of the
/// recorded class.
int selftest(const std::string& dir)
{
    // Three systems on one shared tridiagonal pattern:
    //   0: singular (Neumann Laplacian) with inconsistent rhs -> breakdown
    //      or stagnation, never convergence
    //   1: well-conditioned but rhs poisoned with a NaN -> non_finite
    //   2: well-conditioned -> converges; must NOT be captured
    const index_type n = 16;
    const auto tridiag = [n](real_type diag, real_type off,
                             bool laplacian) {
        io::Coo coo;
        coo.rows = n;
        coo.cols = n;
        for (index_type r = 0; r < n; ++r) {
            for (index_type c = std::max(r - 1, index_type{0});
                 c <= std::min(r + 1, n - 1); ++c) {
                real_type v = r == c ? diag : off;
                if (laplacian && r == c) {
                    // Row sum zero: diagonal = number of neighbors.
                    v = (r == 0 || r == n - 1) ? -off : -2 * off;
                }
                coo.row_idxs.push_back(r);
                coo.col_idxs.push_back(c);
                coo.values.push_back(v);
            }
        }
        return coo;
    };
    const auto a = io::from_coo({tridiag(2, -1, true), tridiag(2, -1, false),
                                 tridiag(2, -1, false)});
    BatchVector<real_type> b(3, n, real_type{1});
    b.entry(0)[0] = 2;  // inconsistent rhs for the singular system
    b.entry(1)[n / 2] = std::nan("");
    BatchVector<real_type> x(3, n);

    obs::FlightRecorder recorder(dir);
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    settings.tolerance = 1e-10;
    settings.max_iterations = 200;
    settings.record_convergence = true;
    settings.flight_recorder = &recorder;
    const auto result = solve_batch(a, b, x, settings);

    int failures = 0;
    if (result.log.failure(2) != FailureClass::converged) {
        std::cerr << "selftest: control system did not converge\n";
        ++failures;
    }
    if (result.log.failure(1) != FailureClass::non_finite) {
        std::cerr << "selftest: NaN-poisoned system classified as "
                  << failure_class_name(result.log.failure(1)) << '\n';
        ++failures;
    }
    if (result.log.failure(0) == FailureClass::converged) {
        std::cerr << "selftest: singular system converged?\n";
        ++failures;
    }
    const auto bundles = obs::list_bundles(dir);
    if (recorder.captured() != 2 || bundles.size() != 2) {
        std::cerr << "selftest: expected 2 bundles, recorder captured "
                  << recorder.captured() << ", found " << bundles.size()
                  << " on disk\n";
        ++failures;
    }
    for (const auto& bundle_dir : bundles) {
        const auto recorded = obs::load_bundle(bundle_dir).meta.failure;
        std::string replayed;
        std::cout << '\n';
        if (!replay_bundle(bundle_dir, ReplayOptions{}, &replayed)) {
            std::cerr << "selftest: paths disagree for " << bundle_dir
                      << '\n';
            ++failures;
        } else if (replayed != recorded) {
            std::cerr << "selftest: replay classified " << replayed
                      << " but the bundle recorded " << recorded << '\n';
            ++failures;
        }
        // Cross-variant replay: the pipelined kernels must classify the
        // same failure, and the diff table now includes a classic-variant
        // scalar baseline so the agreement check spans the variant
        // boundary.
        ReplayOptions pipelined_opt;
        pipelined_opt.pipelined = true;
        std::string replayed_pipelined;
        std::cout << '\n';
        if (!replay_bundle(bundle_dir, pipelined_opt, &replayed_pipelined)) {
            std::cerr << "selftest: pipelined variant disagrees for "
                      << bundle_dir << '\n';
            ++failures;
        } else if (replayed_pipelined != recorded) {
            std::cerr << "selftest: pipelined replay classified "
                      << replayed_pipelined << " but the bundle recorded "
                      << recorded << '\n';
            ++failures;
        }
    }
    std::cout << "\nselftest: " << (failures == 0 ? "PASS" : "FAIL")
              << '\n';
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    std::string bundle_dir;
    std::string selftest_dir;
    ReplayOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--selftest") == 0 && i + 1 < argc) {
            selftest_dir = argv[++i];
        } else if (std::strncmp(arg, "--solver=", 9) == 0) {
            opt.solver_override = arg + 9;
        } else if (std::strncmp(arg, "--precond=", 10) == 0) {
            opt.precond_override = arg + 10;
        } else if (std::strncmp(arg, "--format=", 9) == 0) {
            opt.format = arg + 9;
        } else if (std::strncmp(arg, "--lockstep=", 11) == 0) {
            opt.lockstep_width = std::atoi(arg + 11);
        } else if (std::strncmp(arg, "--max-iters=", 12) == 0) {
            opt.max_iters_override = std::atoi(arg + 12);
        } else if (std::strcmp(arg, "--pipelined") == 0) {
            opt.pipelined = true;
        } else if (arg[0] != '-' && bundle_dir.empty()) {
            bundle_dir = arg;
        } else {
            std::cerr << "usage: replay_entry BUNDLE_DIR [--solver=NAME] "
                         "[--precond=NAME] [--format=csr|ell|sellp|dense] "
                         "[--lockstep=W] [--max-iters=N] [--pipelined]\n"
                         "       replay_entry --selftest DIR\n";
            return 2;
        }
    }
    if (!selftest_dir.empty()) {
        return selftest(selftest_dir);
    }
    if (bundle_dir.empty()) {
        std::cerr << "usage: replay_entry BUNDLE_DIR | --selftest DIR\n";
        return 2;
    }
    try {
        return replay_bundle(bundle_dir, opt) ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "replay failed: " << e.what() << '\n';
        return 2;
    }
}
