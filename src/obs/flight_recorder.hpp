// Solve flight recorder.
//
// When a batched solve is armed with a recorder (SolverSettings::
// flight_recorder), every NON-converged system is dumped as a
// self-contained "bundle" directory -- matrix, right-hand side, initial
// guess (MatrixMarket files) plus a JSON sidecar with the solver settings,
// classification, and residual history. A bundle is everything
// `tools/replay_entry` needs to re-run that one system offline through any
// execution path / solver / format combination, turning a production
// failure into a reproducible test case (fused GPU kernels make in-situ
// diagnosis impractical; capture-and-replay is the workable alternative).
//
// The recorder deliberately knows nothing about core's SolverSettings or
// FailureClass types (obs sits below core in the library graph); the
// sidecar carries plain strings and numbers, converted at the capture
// site.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "util/types.hpp"

namespace bsis::obs {

/// Sidecar metadata of one captured bundle. All solver-enum fields are the
/// canonical lower-case names (solver_name() etc.) so the bundle stays
/// readable without the library headers.
struct FailureBundleMeta {
    std::string failure;        ///< failure_class_name of the classification
    std::string solver;         ///< "bicgstab", "cg", ...
    std::string precond;        ///< "identity", "jacobi", "block_jacobi"
    std::string stop;           ///< "absolute", "relative"
    real_type tolerance = 0.0;
    int max_iterations = 0;
    int gmres_restart = 0;
    int block_jacobi_size = 0;
    real_type richardson_omega = 0.0;
    bool used_initial_guess = false;
    bool pipelined = false;
    int lockstep_width = 0;
    std::int64_t system_index = 0;  ///< index within the captured batch
    int iterations = 0;             ///< iterations the failing solve ran
    real_type residual_norm = 0.0;  ///< final residual norm
    /// Residual trajectory of the failing solve (iteration -> norm);
    /// decimated when the convergence history capacity was exceeded.
    std::vector<std::int64_t> history_iterations;
    std::vector<real_type> history_residuals;
};

/// A bundle read back from disk.
struct FailureBundle {
    io::Coo a;
    std::vector<real_type> b;
    std::vector<real_type> x0;
    FailureBundleMeta meta;
};

/// Thread-safe bounded capture sink. One recorder serves a whole run (many
/// batched solves); the budget caps the total number of bundles so an
/// entirely-diverging production batch cannot flood the disk.
class FlightRecorder {
public:
    /// Bundles are written under `directory` (created on first capture) as
    /// `<seq>_sys<i>/{A.mtx, b.mtx, x0.mtx, meta.json}`.
    explicit FlightRecorder(std::string directory, int budget = 16);

    const std::string& directory() const { return directory_; }

    /// Total captures attempted (including ones dropped over budget).
    std::int64_t seen() const;

    /// Bundles actually written.
    int captured() const;

    int budget() const { return budget_; }

    /// Writes one bundle; returns false (without touching the filesystem)
    /// once the budget is exhausted. Safe to call concurrently from the
    /// batch drivers' capture loops.
    bool capture(const io::Coo& a, ConstVecView<real_type> b,
                 ConstVecView<real_type> x0, const FailureBundleMeta& meta);

private:
    std::string directory_;
    int budget_;
    mutable std::mutex mutex_;
    int captured_ = 0;
    std::int64_t seen_ = 0;
};

/// Reads back one bundle directory written by FlightRecorder::capture.
/// Throws ParseError / IoError on missing or malformed files.
FailureBundle load_bundle(const std::string& bundle_dir);

/// Bundle subdirectories under `capture_dir`, sorted by name (capture
/// order, since the name starts with the sequence number).
std::vector<std::string> list_bundles(const std::string& capture_dir);

}  // namespace bsis::obs
