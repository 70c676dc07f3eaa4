// Solve-forensics glue between core and the obs flight recorder.
//
// obs sits below core in the library graph, so the FlightRecorder's bundle
// sidecar carries plain strings and numbers; this header owns the
// conversions -- canonical names for the runtime composition enums, matrix
// view -> COO extraction, and SolverSettings <-> FailureBundleMeta mapping
// used by the capture loop in the batch driver and by the replay tool.
#pragma once

#include <string>
#include <vector>

#include "core/failure.hpp"
#include "core/logger.hpp"
#include "core/solver.hpp"
#include "io/matrix_market.hpp"
#include "obs/convergence.hpp"
#include "obs/flight_recorder.hpp"
#include "util/types.hpp"

namespace bsis {

inline const char* solver_name(SolverType s)
{
    switch (s) {
    case SolverType::bicgstab:
        return "bicgstab";
    case SolverType::bicg:
        return "bicg";
    case SolverType::cgs:
        return "cgs";
    case SolverType::cg:
        return "cg";
    case SolverType::gmres:
        return "gmres";
    case SolverType::richardson:
        return "richardson";
    case SolverType::chebyshev:
        return "chebyshev";
    }
    return "unknown";
}

inline bool solver_from_name(const std::string& name, SolverType& out)
{
    for (const auto s :
         {SolverType::bicgstab, SolverType::bicg, SolverType::cgs,
          SolverType::cg, SolverType::gmres, SolverType::richardson,
          SolverType::chebyshev}) {
        if (name == solver_name(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

inline const char* precond_name(PrecondType p)
{
    switch (p) {
    case PrecondType::identity:
        return "identity";
    case PrecondType::jacobi:
        return "jacobi";
    case PrecondType::block_jacobi:
        return "block_jacobi";
    }
    return "unknown";
}

inline bool precond_from_name(const std::string& name, PrecondType& out)
{
    for (const auto p : {PrecondType::identity, PrecondType::jacobi,
                         PrecondType::block_jacobi}) {
        if (name == precond_name(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

inline const char* stop_name(StopType s)
{
    switch (s) {
    case StopType::abs_residual:
        return "absolute";
    case StopType::rel_residual:
        return "relative";
    }
    return "unknown";
}

inline bool stop_from_name(const std::string& name, StopType& out)
{
    for (const auto s : {StopType::abs_residual, StopType::rel_residual}) {
        if (name == stop_name(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

/// One batch entry of each shared-pattern format as a COO triplet list
/// (padding slots skipped), for the flight recorder's A.mtx.
inline io::Coo to_coo(const CsrView<real_type>& a)
{
    io::Coo coo;
    coo.rows = a.rows;
    coo.cols = a.rows;
    for (index_type r = 0; r < a.rows; ++r) {
        for (index_type k = a.row_ptrs[r]; k < a.row_ptrs[r + 1]; ++k) {
            coo.row_idxs.push_back(r);
            coo.col_idxs.push_back(a.col_idxs[k]);
            coo.values.push_back(a.values[k]);
        }
    }
    return coo;
}

inline io::Coo to_coo(const EllView<real_type>& a)
{
    io::Coo coo;
    coo.rows = a.rows;
    coo.cols = a.rows;
    for (index_type r = 0; r < a.rows; ++r) {
        for (index_type k = 0; k < a.nnz_per_row; ++k) {
            const index_type c = a.col_idxs[a.at(r, k)];
            if (c != ell_padding) {
                coo.row_idxs.push_back(r);
                coo.col_idxs.push_back(c);
                coo.values.push_back(a.values[a.at(r, k)]);
            }
        }
    }
    return coo;
}

inline io::Coo to_coo(const SellpView<real_type>& a)
{
    io::Coo coo;
    coo.rows = a.rows;
    coo.cols = a.rows;
    for (index_type r = 0; r < a.rows; ++r) {
        const index_type slice = r / a.slice_size;
        const index_type width =
            a.slice_sets[slice + 1] - a.slice_sets[slice];
        for (index_type k = 0; k < width; ++k) {
            const index_type c = a.col_idxs[a.at(r, k)];
            if (c != ell_padding) {
                coo.row_idxs.push_back(r);
                coo.col_idxs.push_back(c);
                coo.values.push_back(a.values[a.at(r, k)]);
            }
        }
    }
    return coo;
}

inline io::Coo to_coo(const ConstDenseView<real_type>& a)
{
    io::Coo coo;
    coo.rows = a.rows;
    coo.cols = a.cols;
    for (index_type r = 0; r < a.rows; ++r) {
        for (index_type c = 0; c < a.cols; ++c) {
            const real_type v = a(r, c);
            if (v != real_type{0}) {
                coo.row_idxs.push_back(r);
                coo.col_idxs.push_back(c);
                coo.values.push_back(v);
            }
        }
    }
    return coo;
}

/// Builds the sidecar for one failed system: settings snapshot plus the
/// recorded outcome and (when available) residual trajectory.
inline obs::FailureBundleMeta make_bundle_meta(
    const SolverSettings& settings, size_type system, const BatchLog& log,
    const obs::ConvergenceHistory* history)
{
    obs::FailureBundleMeta meta;
    meta.failure = failure_class_name(log.failure(system));
    meta.solver = solver_name(settings.solver);
    meta.precond = precond_name(settings.precond);
    meta.stop = stop_name(settings.stop);
    meta.tolerance = settings.tolerance;
    meta.max_iterations = settings.max_iterations;
    meta.gmres_restart = settings.gmres_restart;
    meta.block_jacobi_size = settings.block_jacobi_size;
    meta.richardson_omega = settings.richardson_omega;
    meta.used_initial_guess = settings.use_initial_guess;
    meta.pipelined = settings.pipelined;
    meta.lockstep_width = settings.lockstep_width;
    meta.system_index = static_cast<std::int64_t>(system);
    meta.iterations = log.iterations(system);
    meta.residual_norm = log.residual_norm(system);
    if (history != nullptr && history->active()) {
        for (const auto& pt : history->points(system)) {
            meta.history_iterations.push_back(pt.iteration);
            meta.history_residuals.push_back(pt.residual);
        }
    }
    return meta;
}

/// Restores the captured composition into settings for a replay (execution
/// knobs like lockstep_width are left for the replayer to choose).
inline bool apply_bundle_meta(const obs::FailureBundleMeta& meta,
                              SolverSettings& settings)
{
    if (!solver_from_name(meta.solver, settings.solver) ||
        !precond_from_name(meta.precond, settings.precond) ||
        !stop_from_name(meta.stop, settings.stop)) {
        return false;
    }
    settings.tolerance = meta.tolerance;
    settings.max_iterations = meta.max_iterations;
    settings.gmres_restart = meta.gmres_restart;
    settings.block_jacobi_size = meta.block_jacobi_size;
    settings.richardson_omega = meta.richardson_omega;
    settings.use_initial_guess = meta.used_initial_guess;
    settings.pipelined = meta.pipelined;
    return true;
}

}  // namespace bsis
