// Tests for the fused BLAS kernels and their use in the solvers.
//
// Property tests compare each single-pass fused kernel against the
// composition of unfused reference kernels it replaces, to within a few
// ulp scaled to the largest accumulated term (fusion may contract
// multiply-adds; it must not reassociate the reduction order). Solve-level
// tests check the fused BiCGStab agrees with the reference composition
// (the unfused oracle kept below) on the stencil batch, and that the
// persistent workspace pool really is persistent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "blas/kernels.hpp"
#include "core/bicgstab.hpp"
#include "core/solver.hpp"
#include "core/workspace.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

constexpr real_type eps = std::numeric_limits<real_type>::epsilon();

/// Random vector of length n in [-1, 1].
std::vector<real_type> random_vec(Rng& rng, index_type n)
{
    std::vector<real_type> v(static_cast<std::size_t>(n));
    for (auto& x : v) {
        x = rng.uniform(-1.0, 1.0);
    }
    return v;
}

VecView<real_type> view(std::vector<real_type>& v)
{
    return {v.data(), static_cast<index_type>(v.size())};
}

ConstVecView<real_type> cview(const std::vector<real_type>& v)
{
    return {v.data(), static_cast<index_type>(v.size())};
}

/// |a - b| within `ulps` ulp of the magnitude `scale` (NOT of the result:
/// fused updates can cancel, so the bound must follow the largest term).
void expect_close(real_type a, real_type b, real_type scale,
                  double ulps = 4.0)
{
    const real_type bound =
        ulps * eps * std::max<real_type>(scale, real_type{1});
    EXPECT_NEAR(a, b, bound) << "scale " << scale;
}

/// Vector lengths exercised by every property test: empty, sub-warp, odd,
/// and larger-than-a-few-warps.
const index_type lengths[] = {0, 1, 7, 64, 193};

TEST(FusedKernels, AxpbypczMatchesUnfusedComposition)
{
    Rng rng(101);
    for (const auto n : lengths) {
        const auto x = random_vec(rng, n);
        const auto y = random_vec(rng, n);
        const auto z0 = random_vec(rng, n);
        const real_type alpha = 1.0, beta = -0.37, gamma = 0.81;

        auto z_ref = z0;
        // Reference: z = alpha*x + beta*y + gamma*z via scal + two axpys.
        blas::scal(gamma, view(z_ref));
        blas::axpy(alpha, cview(x), view(z_ref));
        blas::axpy(beta, cview(y), view(z_ref));

        auto z = z0;
        blas::axpbypcz(alpha, cview(x), beta, cview(y), gamma, view(z));

        for (index_type i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            const real_type scale = std::abs(alpha * x[k]) +
                                    std::abs(beta * y[k]) +
                                    std::abs(gamma * z0[k]);
            expect_close(z[k], z_ref[k], scale);
        }
    }
}

TEST(FusedKernels, ZaxpbyMatchesCopyPlusAxpby)
{
    Rng rng(102);
    for (const auto n : lengths) {
        const auto x = random_vec(rng, n);
        const auto y = random_vec(rng, n);
        const real_type alpha = 0.9, beta = -1.21;

        std::vector<real_type> z_ref(static_cast<std::size_t>(n));
        blas::copy(cview(y), view(z_ref));
        blas::axpby(alpha, cview(x), beta, view(z_ref));

        std::vector<real_type> z(static_cast<std::size_t>(n));
        blas::zaxpby(alpha, cview(x), beta, cview(y), view(z));

        for (index_type i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            const real_type scale =
                std::abs(alpha * x[k]) + std::abs(beta * y[k]);
            expect_close(z[k], z_ref[k], scale);
        }
    }
}

TEST(FusedKernels, ZaxpbyNrm2MatchesSeparateNorm)
{
    Rng rng(103);
    for (const auto n : lengths) {
        const auto x = random_vec(rng, n);
        const auto y = random_vec(rng, n);
        const real_type alpha = -1.0, beta = 0.64;

        std::vector<real_type> z_ref(static_cast<std::size_t>(n));
        blas::zaxpby(alpha, cview(x), beta, cview(y), view(z_ref));
        const real_type norm_ref = blas::nrm2(cview(z_ref));

        std::vector<real_type> z(static_cast<std::size_t>(n));
        const real_type norm =
            blas::zaxpby_nrm2(alpha, cview(x), beta, cview(y), view(z));

        for (index_type i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            EXPECT_EQ(z[k], z_ref[k]);
        }
        expect_close(norm, norm_ref, norm_ref);
    }
}

TEST(FusedKernels, AxpyNrm2MatchesSeparateNorm)
{
    Rng rng(104);
    for (const auto n : lengths) {
        const auto x = random_vec(rng, n);
        const auto y0 = random_vec(rng, n);
        const real_type alpha = 0.43;

        auto y_ref = y0;
        blas::axpy(alpha, cview(x), view(y_ref));
        const real_type norm_ref = blas::nrm2(cview(y_ref));

        auto y = y0;
        const real_type norm = blas::axpy_nrm2(alpha, cview(x), view(y));

        for (index_type i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            EXPECT_EQ(y[k], y_ref[k]);
        }
        expect_close(norm, norm_ref, norm_ref);
    }
}

TEST(FusedKernels, Dot2MatchesTwoDots)
{
    Rng rng(105);
    for (const auto n : lengths) {
        const auto x = random_vec(rng, n);
        const auto y1 = random_vec(rng, n);
        const auto y2 = random_vec(rng, n);

        const real_type d1_ref = blas::dot(cview(x), cview(y1));
        const real_type d2_ref = blas::dot(cview(x), cview(y2));

        real_type d1 = 0, d2 = 0;
        blas::dot2(cview(x), cview(y1), cview(y2), d1, d2);

        // Identical accumulation order: the fused pass must agree up to
        // multiply-add contraction.
        expect_close(d1, d1_ref, static_cast<real_type>(n));
        expect_close(d2, d2_ref, static_cast<real_type>(n));
    }
}

TEST(FusedKernels, Dot2SelfDotMatchesNormSquared)
{
    Rng rng(106);
    const index_type n = 96;
    const auto t = random_vec(rng, n);
    const auto s = random_vec(rng, n);
    real_type t_t = 0, t_s = 0;
    blas::dot2(cview(t), cview(t), cview(s), t_t, t_s);
    expect_close(t_t, blas::dot(cview(t), cview(t)),
                 static_cast<real_type>(n));
    expect_close(t_s, blas::dot(cview(t), cview(s)),
                 static_cast<real_type>(n));
}

TEST(FusedKernels, Axpby2MatchesTwoAxpbys)
{
    Rng rng(107);
    for (const auto n : lengths) {
        const auto x1 = random_vec(rng, n);
        const auto x2 = random_vec(rng, n);
        const auto y1_0 = random_vec(rng, n);
        const auto y2_0 = random_vec(rng, n);
        const real_type alpha = 1.0, beta = -0.58;

        auto y1_ref = y1_0;
        auto y2_ref = y2_0;
        blas::axpby(alpha, cview(x1), beta, view(y1_ref));
        blas::axpby(alpha, cview(x2), beta, view(y2_ref));

        auto y1 = y1_0;
        auto y2 = y2_0;
        blas::axpby2(alpha, cview(x1), cview(x2), beta, view(y1), view(y2));

        for (index_type i = 0; i < n; ++i) {
            const auto k = static_cast<std::size_t>(i);
            const real_type s1 =
                std::abs(alpha * x1[k]) + std::abs(beta * y1_0[k]);
            const real_type s2 =
                std::abs(alpha * x2[k]) + std::abs(beta * y2_0[k]);
            expect_close(y1[k], y1_ref[k], s1);
            expect_close(y2[k], y2_ref[k], s2);
        }
    }
}

TEST(FusedKernels, AliasedOutputIsSupported)
{
    // The solvers call the fused kernels with the output aliasing an
    // input (p = r + beta*(p - omega v) reads and writes p).
    Rng rng(108);
    const index_type n = 33;
    const auto r = random_vec(rng, n);
    const auto v = random_vec(rng, n);
    const auto p0 = random_vec(rng, n);
    const real_type beta = 0.7, omega = 0.3;

    auto p_ref = p0;
    blas::scal(beta, view(p_ref));
    blas::axpy(real_type{1}, cview(r), view(p_ref));
    blas::axpy(-beta * omega, cview(v), view(p_ref));

    auto p = p0;
    blas::axpbypcz(real_type{1}, cview(r), -beta * omega, cview(v), beta,
                   view(p));
    for (index_type i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const real_type scale = std::abs(r[k]) +
                                std::abs(beta * omega * v[k]) +
                                std::abs(beta * p0[k]);
        expect_close(p[k], p_ref[k], scale);
    }
}

/// Stencil batch with random right-hand sides (same fixture as test_core).
struct Problem {
    BatchCsr<real_type> a;
    BatchVector<real_type> b;

    static Problem make(size_type nbatch)
    {
        SyntheticStencilParams params;
        params.seed = 1234;
        Problem p{make_synthetic_batch(8, 7, StencilKind::nine_point,
                                       nbatch, params),
                  BatchVector<real_type>(nbatch, 8 * 7)};
        Rng rng(55);
        for (size_type i = 0; i < nbatch; ++i) {
            auto bv = p.b.entry(i);
            for (index_type k = 0; k < bv.len; ++k) {
                bv[k] = rng.uniform(-1.0, 1.0);
            }
        }
        return p;
    }
};

/// Reference BiCGStab on the unfused one-sweep-per-BLAS-call composition:
/// the test oracle of the fused `bicgstab_kernel`. Mathematically
/// identical (same operations in the same order; fused sweeps only change
/// rounding within a pass) but sweeps the vectors ~13 times per iteration.
template <typename MatrixView, typename Prec>
EntryResult bicgstab_kernel_unfused(
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

    // r = b - A x; with a zero guess this reduces to r = b.
    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    blas::axpby(real_type{1}, b, real_type{-1}, r);
    blas::copy(ConstVecView<real_type>(r), r_hat);
    blas::fill(p, real_type{0});
    blas::fill(v, real_type{0});

    real_type rho_old = 1;
    real_type omega = 1;
    real_type alpha = 1;
    real_type r_norm = obs::traced(
        obs::Phase::reduction, "reduction",
        [&] { return blas::nrm2(ConstVecView<real_type>(r)); });
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
        const real_type rho =
            blas::dot(ConstVecView<real_type>(r), ConstVecView<real_type>(r_hat));
        if (rho == real_type{0} || omega == real_type{0}) {
            // Serious breakdown: the Krylov space cannot be extended.
            return {iter, r_norm, false,
                    rho == real_type{0} ? FailureClass::breakdown_rho
                                        : FailureClass::breakdown_omega};
        }
        const real_type beta = (rho / rho_old) * (alpha / omega);
        // p = r + beta * (p - omega * v)
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(-omega, ConstVecView<real_type>(v), p);
            blas::axpby(real_type{1}, ConstVecView<real_type>(r), beta, p);
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
        // s = r - alpha * v
        obs::traced(obs::Phase::update, "update", [&] {
            blas::copy(ConstVecView<real_type>(r), s);
            blas::axpy(-alpha, ConstVecView<real_type>(v), s);
        });
        const real_type s_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(s));
        });
        if (stop.done(s_norm, b_norm)) {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
            return {iter + 1, s_norm, true, FailureClass::converged};
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(s), s_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(s_hat), t); });
        const real_type t_t = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(t),
                             ConstVecView<real_type>(t));
        });
        const real_type t_s = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(t),
                             ConstVecView<real_type>(s));
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
        // x = x + alpha * p_hat + omega * s_hat
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
            blas::axpy(omega, ConstVecView<real_type>(s_hat), x);
        });
        // r = s - omega * t
        obs::traced(obs::Phase::update, "update", [&] {
            blas::copy(ConstVecView<real_type>(s), r);
            blas::axpy(-omega, ConstVecView<real_type>(t), r);
        });
        r_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(r));
        });
        rho_old = rho;
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

TEST(FusedSolve, BicgstabIterationsWithinOneOfUnfused)
{
    const size_type nbatch = 12;
    auto p = Problem::make(nbatch);

    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    settings.tolerance = 1e-10;

    BatchVector<real_type> x_fused(nbatch, p.b.len());
    const auto fused = solve_batch(p.a, p.b, x_fused, settings);
    ASSERT_TRUE(fused.log.all_converged());

    // The oracle runs entry by entry with the same preconditioner, stop
    // criterion and iteration limit as the solve above.
    const StopCriterion stop{settings.stop, settings.tolerance};
    BatchVector<real_type> x_ref(nbatch, p.b.len());
    for (size_type i = 0; i < nbatch; ++i) {
        Workspace ws(p.b.len(), bicgstab_work_vectors + 1);
        JacobiPrec prec;
        prec.generate(p.a.entry(i), ws.slot(bicgstab_work_vectors));
        const auto ref = bicgstab_kernel_unfused(
            p.a.entry(i), p.b.entry(i), x_ref.entry(i), prec, stop,
            settings.max_iterations, ws);
        ASSERT_TRUE(ref.converged) << "system " << i;
        // Identical reduction order means the two paths track each other
        // to rounding; the stopping decision may shift by at most one
        // iteration.
        EXPECT_NEAR(fused.log.iterations(i), ref.iterations, 1)
            << "system " << i;
        const auto xf = x_fused.entry(i);
        const auto xr = x_ref.entry(i);
        for (index_type k = 0; k < xf.len; ++k) {
            EXPECT_NEAR(xf[k], xr[k], 1e-7) << "system " << i;
        }
    }
    // The fused path must report the fused sweep structure to the cost
    // model; the cost model's unfused composition must not.
    const auto unfused_work =
        work_profile(settings.solver, settings.precond,
                     settings.gmres_restart, settings.block_jacobi_size,
                     false);
    EXPECT_TRUE(fused.work.has_fused_shape());
    EXPECT_FALSE(unfused_work.has_fused_shape());
    EXPECT_EQ(fused.work.dots_per_iter, unfused_work.dots_per_iter);
}

TEST(FusedSolve, AllSolversConvergeWithFusedKernels)
{
    // The fused updates in CG / CGS / BiCG ride the same solve_batch path;
    // every composition must still converge on the stencil batch.
    const size_type nbatch = 4;
    auto p = Problem::make(nbatch);
    for (const auto solver : {SolverType::bicgstab, SolverType::cgs,
                              SolverType::bicg}) {
        SolverSettings settings;
        settings.solver = solver;
        settings.precond = PrecondType::jacobi;
        settings.tolerance = 1e-10;
        BatchVector<real_type> x(nbatch, p.b.len());
        const auto result = solve_batch(p.a, p.b, x, settings);
        EXPECT_TRUE(result.log.all_converged())
            << "solver " << static_cast<int>(solver);
    }
}

TEST(WorkspacePool, PersistsAndGrowsAcrossRequires)
{
    WorkspacePool pool;
    pool.require(2, 100, 4);
    ASSERT_EQ(pool.num_threads(), 2);
    EXPECT_EQ(pool.at(0).length(), 100);
    EXPECT_EQ(pool.at(0).num_slots(), 4);

    // Same-shape require must not reallocate (this is the point of the
    // pool: repeated solves reuse the buffers).
    const auto* data0 = pool.at(0).slot(0).data;
    const auto* data1 = pool.at(1).slot(0).data;
    pool.require(2, 100, 4);
    EXPECT_EQ(pool.at(0).slot(0).data, data0);
    EXPECT_EQ(pool.at(1).slot(0).data, data1);

    // Growing keeps the pool usable at the larger shape. A smaller
    // request then adopts the smaller shape exactly (kernels get
    // exactly-sized slot views) while reusing the grown storage and
    // keeping every thread's workspace alive.
    pool.require(3, 150, 6);
    EXPECT_EQ(pool.num_threads(), 3);
    EXPECT_EQ(pool.at(2).length(), 150);
    EXPECT_EQ(pool.at(2).num_slots(), 6);
    const auto* grown0 = pool.at(0).slot(0).data;
    pool.require(1, 10, 2);
    EXPECT_EQ(pool.num_threads(), 3);
    EXPECT_EQ(pool.at(0).length(), 10);
    EXPECT_EQ(pool.at(0).num_slots(), 2);
    EXPECT_EQ(pool.at(0).slot(0).data, grown0);
}

TEST(WorkspacePool, SmallerSolveAfterBiggerOneGetsExactSlots)
{
    // Regression: the calling thread's pool persists across solve_batch
    // calls, and slots used to keep their high-water length -- a 992-row
    // solve followed by a 56-row one handed the Jacobi setup (and the
    // kernels) 992-long views over 56-row systems.
    SyntheticStencilParams params;
    params.seed = 1234;
    SolverSettings settings;
    settings.precond = PrecondType::jacobi;

    auto big = make_synthetic_batch(32, 31, StencilKind::nine_point, 2,
                                    params);
    BatchVector<real_type> bb(2, big.rows(), 1.0);
    BatchVector<real_type> xb(2, big.rows());
    ASSERT_TRUE(solve_batch(big, bb, xb, settings).log.all_converged());

    auto small = Problem::make(4);
    BatchVector<real_type> xs(4, small.b.len());
    // Reference solved before the big problem ever touched this pool is
    // unavailable here; bitwise determinism across pool states is what
    // RepeatedSolvesReuseThePool pins. Converging at all is the point:
    // this sequence used to throw on the workspace-length assert.
    ASSERT_TRUE(
        solve_batch(small.a, small.b, xs, settings).log.all_converged());
}

TEST(WorkspacePool, RepeatedSolvesReuseThePool)
{
    // Two solve_batch calls of the same shape: the second must produce the
    // same answer (the pool is opaque to callers, so this is an end-to-end
    // smoke check that reuse does not leak state between solves).
    const size_type nbatch = 4;
    auto p = Problem::make(nbatch);
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;

    BatchVector<real_type> x1(nbatch, p.b.len());
    const auto first = solve_batch(p.a, p.b, x1, settings);
    BatchVector<real_type> x2(nbatch, p.b.len());
    const auto second = solve_batch(p.a, p.b, x2, settings);

    ASSERT_TRUE(first.log.all_converged());
    ASSERT_TRUE(second.log.all_converged());
    for (size_type i = 0; i < nbatch; ++i) {
        EXPECT_EQ(first.log.iterations(i), second.log.iterations(i));
        const auto a = x1.entry(i);
        const auto b = x2.entry(i);
        for (index_type k = 0; k < a.len; ++k) {
            EXPECT_EQ(a[k], b[k]) << "system " << i;
        }
    }
}

}  // namespace
}  // namespace bsis
