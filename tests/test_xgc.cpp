#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "lapack/eigen.hpp"
#include "matrix/stats.hpp"
#include "xgc/collision_operator.hpp"
#include "xgc/distribution.hpp"
#include "xgc/grid.hpp"
#include "xgc/picard.hpp"
#include "xgc/species.hpp"
#include "xgc/workload.hpp"

namespace bsis::xgc {
namespace {

/// Restores the OpenMP thread count on scope exit.
struct RestoreThreads {
#ifdef _OPENMP
    int saved = omp_get_max_threads();
    ~RestoreThreads() { omp_set_num_threads(saved); }
#endif
};

void set_threads([[maybe_unused]] int t)
{
#ifdef _OPENMP
    omp_set_num_threads(t);
#endif
}

constexpr int thread_counts[] = {1, 2, 4};

TEST(Grid, PaperGridHas992Rows)
{
    const VelocityGrid grid(32, 31);
    EXPECT_EQ(grid.rows(), 992);
    EXPECT_EQ(grid.n_vpar(), 32);
    EXPECT_EQ(grid.n_vperp(), 31);
}

TEST(Grid, CellCentersAndFaces)
{
    const VelocityGrid grid(8, 4, 4.0, 2.0);
    EXPECT_DOUBLE_EQ(grid.dvpar(), 1.0);
    EXPECT_DOUBLE_EQ(grid.dvperp(), 0.5);
    EXPECT_DOUBLE_EQ(grid.vpar(0), -3.5);
    EXPECT_DOUBLE_EQ(grid.vpar(7), 3.5);
    EXPECT_DOUBLE_EQ(grid.vperp(0), 0.25);
    EXPECT_DOUBLE_EQ(grid.vperp_face(0), 0.0);  // axis: zero metric
    EXPECT_DOUBLE_EQ(grid.vperp_face(4), 2.0);
    EXPECT_EQ(grid.row(3, 2), 2 * 8 + 3);
}

TEST(Grid, RejectsBadShapes)
{
    EXPECT_THROW(VelocityGrid(2, 31), BadArgument);
    EXPECT_THROW(VelocityGrid(32, 31, -1.0), BadArgument);
}

TEST(Distribution, MaxwellianMomentsRoundTrip)
{
    const VelocityGrid grid(48, 48, 7.0, 7.0);
    PlasmaState state;
    state.density = 2.5;
    state.u_par = 0.3;
    state.temperature = 1.2;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto m =
        moments(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(m.density, state.density, 0.01 * state.density);
    EXPECT_NEAR(m.u_par, state.u_par, 0.01);
    EXPECT_NEAR(m.temperature, state.temperature, 0.02);
}

TEST(Distribution, ConservedQuantitiesOfMaxwellian)
{
    const VelocityGrid grid(48, 48, 7.0, 7.0);
    PlasmaState state;
    state.density = 1.0;
    state.temperature = 1.0;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto q =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(q.density, 1.0, 0.01);
    EXPECT_NEAR(q.momentum, 0.0, 1e-10);  // symmetric grid, zero flow
    EXPECT_NEAR(q.energy, 1.5, 0.05);     // (3/2) n T
}

TEST(Distribution, MomentFixRestoresInvariantsExactly)
{
    const VelocityGrid grid(32, 31);
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto target =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    // Perturb f, then fix.
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] *= 1.0 + 0.01 * std::sin(static_cast<double>(i));
    }
    moment_fix(grid, VecView<real_type>{f.data(), grid.rows()}, target);
    const auto fixed =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(conservation_error(target, fixed), 0.0, 1e-12);
}

TEST(Distribution, ConservationErrorMetric)
{
    ConservedQuantities a{1.0, 0.0, 1.5};
    ConservedQuantities b{1.0 + 1e-7, 1e-8, 1.5};
    EXPECT_NEAR(conservation_error(a, b), 1e-7, 2e-8);
    EXPECT_DOUBLE_EQ(conservation_error(a, a), 0.0);
}

class OperatorFixture : public ::testing::Test {
protected:
    OperatorFixture() : grid_(32, 31), op_(grid_, ion_species()) {}

    VelocityGrid grid_;
    CollisionOperator op_;
};

TEST_F(OperatorFixture, PatternIsTheNinePointStencil)
{
    const auto& p = op_.pattern();
    EXPECT_EQ(p.rows(), 992);
    index_type max_nnz = 0;
    for (index_type r = 0; r < p.rows(); ++r) {
        max_nnz = std::max(max_nnz, p.row_ptrs[r + 1] - p.row_ptrs[r]);
    }
    EXPECT_EQ(max_nnz, 9);
}

TEST_F(OperatorFixture, MaxwellianIsExactDiscreteEquilibrium)
{
    // The Maxwellian-weighted discretization annihilates the drifting
    // Maxwellian of the SAME moments to machine precision.
    PlasmaState state;
    state.density = 1.3;
    state.u_par = 0.2;
    state.temperature = 0.9;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{f.data(), grid_.rows()});
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type worst = 0;
    for (const auto v : cf) {
        worst = std::max(worst, std::abs(v));
    }
    EXPECT_LT(worst, 1e-12);
}

TEST_F(OperatorFixture, DensityConservedForArbitraryF)
{
    // Flux form + zero-flux boundaries: the weighted column sums of C
    // vanish, so density is conserved for ANY f.
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            f[grid_.row(i, j)] =
                0.1 + 0.05 * std::sin(0.7 * i) * std::cos(0.3 * j);
        }
    }
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type density_rate = 0;
    real_type magnitude = 0;
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            density_rate += cf[grid_.row(i, j)] * grid_.cell_volume(j);
            magnitude +=
                std::abs(cf[grid_.row(i, j)]) * grid_.cell_volume(j);
        }
    }
    EXPECT_LT(std::abs(density_rate), 1e-12 * std::max(magnitude, 1.0));
}

TEST_F(OperatorFixture, RelaxesPerturbationTowardEquilibrium)
{
    // C must push a perturbed distribution back toward the Maxwellian:
    // the L2 distance to equilibrium decreases under a small explicit
    // step.
    PlasmaState state;
    std::vector<real_type> m(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{m.data(), grid_.rows()});
    auto f = m;
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            f[grid_.row(i, j)] *= 1.0 + 0.1 * std::sin(0.5 * i + 0.2 * j);
        }
    }
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type before = 0;
    real_type after = 0;
    const real_type dt = 1e-3;
    for (std::size_t i = 0; i < f.size(); ++i) {
        before += (f[i] - m[i]) * (f[i] - m[i]);
        const real_type stepped = f[i] + dt * cf[i];
        after += (stepped - m[i]) * (stepped - m[i]);
    }
    EXPECT_LT(after, before);
}

TEST_F(OperatorFixture, AssembledMatrixIsNonsymmetricAndNearIdentity)
{
    PlasmaState state;
    BatchCsr<real_type> batch(1, grid_.rows(), op_.pattern().row_ptrs,
                              op_.pattern().col_idxs);
    op_.assemble(state, {}, 0.0035, batch.values(0));
    const auto stats = compute_stats(batch);
    EXPECT_FALSE(stats.numerically_symmetric);
    EXPECT_TRUE(stats.pattern_symmetric);
    // Backward Euler of a small step: diagonal near 1.
    std::vector<real_type> diag(static_cast<std::size_t>(grid_.rows()));
    extract_diagonal(batch.entry(0),
                     VecView<real_type>{diag.data(), grid_.rows()});
    for (const auto d : diag) {
        EXPECT_GT(d, 0.5);
        EXPECT_LT(d, 3.0);
    }
}

TEST_F(OperatorFixture, ScreeningTablesReflectShape)
{
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{f.data(), grid_.rows()});
    for (const auto k : op_.screening_table(
             state, ConstVecView<real_type>{f.data(), grid_.rows()})) {
        EXPECT_NEAR(k, 1.0, 0.05);  // Maxwellian: ratio ~ 1 in every shell
    }
    // A beam-loaded distribution deviates in the high-speed shells.
    PlasmaState beam = state;
    beam.u_par = 2.5;
    beam.density = 0.4;
    std::vector<real_type> g(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, beam, VecView<real_type>{g.data(), grid_.rows()});
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] += g[i];
    }
    real_type max_dev = 0;
    for (const auto k : op_.screening_table(
             state, ConstVecView<real_type>{f.data(), grid_.rows()})) {
        max_dev = std::max(max_dev, std::abs(k - 1.0));
    }
    EXPECT_GT(max_dev, 0.2);
}

TEST(Workload, SystemLayoutAlternatesSpecies)
{
    WorkloadParams params;
    params.num_mesh_nodes = 3;
    CollisionWorkload w(params);
    EXPECT_EQ(w.num_systems(), 6);
    EXPECT_EQ(w.system_species(0).name, "ion");
    EXPECT_EQ(w.system_species(1).name, "electron");
    EXPECT_EQ(w.system_species(4).name, "ion");
}

TEST(Workload, SingleSpeciesFiltering)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    params.include_electrons = false;
    CollisionWorkload ions_only(params);
    EXPECT_EQ(ions_only.num_systems(), 2);
    EXPECT_EQ(ions_only.system_species(1).name, "ion");
    params.include_electrons = true;
    params.include_ions = false;
    CollisionWorkload electrons_only(params);
    EXPECT_EQ(electrons_only.system_species(0).name, "electron");
    params.include_electrons = false;
    EXPECT_THROW(CollisionWorkload{params}, BadArgument);
}

TEST(Workload, MultiIonSpeciesLayout)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    params.num_ion_species = 3;
    CollisionWorkload w(params);
    EXPECT_EQ(w.num_species(), 4);  // 3 ions + electrons
    EXPECT_EQ(w.num_systems(), 8);
    EXPECT_EQ(w.system_species(0).name, "ion");
    EXPECT_EQ(w.system_species(1).name, "impurity_1");
    EXPECT_EQ(w.system_species(2).name, "impurity_2");
    EXPECT_EQ(w.system_species(3).name, "electron");
    // Impurities collide faster (Z^4 scaling).
    EXPECT_GT(w.system_species(1).collision_rate,
              w.system_species(0).collision_rate);
    EXPECT_GT(w.system_species(2).collision_rate,
              w.system_species(1).collision_rate);
}

TEST(Workload, MultiSpeciesPicardStepConverges)
{
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    wp.num_ion_species = 3;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-10;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 3;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    for (const auto& log : report.linear_logs) {
        EXPECT_TRUE(log.all_converged());
    }
    EXPECT_LT(report.max_conservation_error(), 1e-12);
}

TEST(Workload, NodesHaveDistinctProfiles)
{
    WorkloadParams params;
    params.num_mesh_nodes = 4;
    CollisionWorkload w(params);
    const auto m0 = w.system_moments(w.distributions(), 0);
    const auto m2 = w.system_moments(w.distributions(), 2);
    EXPECT_NE(m0.density, m2.density);
    EXPECT_NE(m0.temperature, m2.temperature);
}

TEST(Workload, AssemblyFillsEverySystem)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    CollisionWorkload w(params);
    auto a = w.make_matrix_batch();
    w.assemble_batch(w.distributions(), w.distributions(), 0.0035, a);
    for (size_type sys = 0; sys < w.num_systems(); ++sys) {
        real_type sum = 0;
        for (index_type k = 0; k < a.nnz_per_entry(); ++k) {
            sum += std::abs(a.values(sys)[k]);
        }
        EXPECT_GT(sum, 100.0) << "system " << sys;  // diag alone is ~992
    }
    // Ion and electron matrices must differ (different collisionality).
    real_type diff = 0;
    for (index_type k = 0; k < a.nnz_per_entry(); ++k) {
        diff += std::abs(a.values(0)[k] - a.values(1)[k]);
    }
    EXPECT_GT(diff, 1.0);
}

TEST(Workload, AssemblyIsBitIdenticalAtEveryThreadCount)
{
    // Mesh nodes assemble in parallel; every system must come out
    // bit-identical at any thread count, and equal to a standalone
    // operator fed the same state and blended screening.
    WorkloadParams params;
    params.num_mesh_nodes = 9;
    params.num_ion_species = 2;
    CollisionWorkload w(params);
    const auto& anchor = w.distributions();
    // A Picard-like iterate whose shape differs from the anchor's.
    BatchVector<real_type> iterate = anchor;
    for (size_type i = 0; i < iterate.size(); ++i) {
        iterate.data()[i] *= 1.0 + 0.05 * std::sin(0.37 * i);
    }
    const real_type dt = 0.0035;
    const auto system_bytes =
        static_cast<std::size_t>(w.make_matrix_batch().nnz_per_entry()) *
        sizeof(real_type);
    const auto bytes =
        static_cast<std::size_t>(w.num_systems()) * system_bytes;

    [[maybe_unused]] RestoreThreads restore;
    set_threads(1);
    auto serial = w.make_matrix_batch();
    w.assemble_batch(iterate, anchor, dt, serial);
    for (const int t : thread_counts) {
        set_threads(t);
        auto a = w.make_matrix_batch();
        w.assemble_batch(iterate, anchor, dt, a);
        EXPECT_EQ(std::memcmp(a.values(0), serial.values(0), bytes), 0)
            << t << " threads";
    }

    const size_type ns = w.num_species();
    auto single = w.make_matrix_batch();
    for (size_type node = 0; node < w.num_mesh_nodes(); ++node) {
        std::vector<PlasmaState> states;
        std::vector<std::vector<real_type>> tables;
        std::vector<CollisionOperator> ops;
        for (size_type s = 0; s < ns; ++s) {
            const size_type sys = node * ns + s;
            ops.emplace_back(w.grid(), w.system_species(sys));
            states.push_back(moments(w.grid(), anchor.entry(sys)));
            tables.push_back(
                ops.back().screening_table(states.back(), iterate.entry(sys)));
        }
        for (size_type s = 0; s < ns; ++s) {
            const auto si = static_cast<std::size_t>(s);
            const real_type wt = ops[si].species().cross_species_weight;
            std::vector<real_type> screen(tables[si].size(), 0.0);
            for (size_type s2 = 0; s2 < ns; ++s2) {
                if (s2 == s) {
                    continue;
                }
                for (std::size_t k = 0; k < screen.size(); ++k) {
                    screen[k] += tables[static_cast<std::size_t>(s2)][k] /
                                 static_cast<real_type>(ns - 1);
                }
            }
            for (std::size_t k = 0; k < screen.size(); ++k) {
                screen[k] = (1 - wt) * tables[si][k] + wt * screen[k];
            }
            const size_type sys = node * ns + s;
            ops[si].assemble(states[si], screen, dt, single.values(sys));
            EXPECT_EQ(std::memcmp(single.values(sys), serial.values(sys),
                                  system_bytes),
                      0)
                << "system " << sys;
        }
    }
}

TEST(Picard, StepIsIdenticalAtEveryThreadCount)
{
    // One full implicit step (assembly, residual, solves, moment fix) at
    // 1, 2 and 4 threads: distributions, per-system iteration counts,
    // conservation errors and the nonlinear residual must all match.
    struct Outcome {
        BatchVector<real_type> f;
        std::vector<std::vector<int>> iterations;
        PicardReport report;
    };
    const auto step = [](int threads) {
        set_threads(threads);
        WorkloadParams wp;
        wp.num_mesh_nodes = 6;
        CollisionWorkload workload(wp);
        SolverSettings s;
        s.tolerance = 1e-10;
        s.max_iterations = 500;
        Outcome out;
        out.report = implicit_collision_step(workload, PicardSettings{},
                                             make_reference_solver(s));
        out.f = workload.distributions();
        for (const auto& log : out.report.linear_logs) {
            std::vector<int> its;
            for (size_type sys = 0; sys < log.num_batch(); ++sys) {
                its.push_back(log.iterations(sys));
            }
            out.iterations.push_back(its);
        }
        return out;
    };
    [[maybe_unused]] RestoreThreads restore;
    const auto serial = step(1);
    ASSERT_EQ(serial.report.picard_iterations, 5);
    for (const int t : thread_counts) {
        const auto par = step(t);
        EXPECT_EQ(std::memcmp(par.f.data(), serial.f.data(),
                              static_cast<std::size_t>(serial.f.size()) *
                                  sizeof(real_type)),
                  0)
            << t << " threads";
        EXPECT_EQ(par.iterations, serial.iterations) << t << " threads";
        EXPECT_EQ(par.report.conservation_errors,
                  serial.report.conservation_errors)
            << t << " threads";
        EXPECT_EQ(par.report.raw_conservation_errors,
                  serial.report.raw_conservation_errors)
            << t << " threads";
        EXPECT_EQ(par.report.nonlinear_change,
                  serial.report.nonlinear_change)
            << t << " threads";
    }
}

class PicardFixture : public ::testing::Test {
protected:
    static PicardReport run(bool warm, int num_nodes = 2,
                            real_type tol = 1e-10)
    {
        WorkloadParams wp;
        wp.num_mesh_nodes = num_nodes;
        CollisionWorkload workload(wp);
        SolverSettings s;
        s.tolerance = tol;
        s.max_iterations = 500;
        PicardSettings ps;
        ps.warm_start = warm;
        return implicit_collision_step(workload, ps,
                                       make_reference_solver(s));
    }
};

TEST_F(PicardFixture, TableThreeShape)
{
    // Table III of the paper: electron iterations decay ~30 -> ~12, ion
    // ~5 -> ~2, monotonically, under warm starting.
    const auto report = run(true);
    ASSERT_EQ(report.picard_iterations, 5);
    const double e0 = report.mean_species_iterations(0, 1, 2);
    const double e4 = report.mean_species_iterations(4, 1, 2);
    const double i0 = report.mean_species_iterations(0, 0, 2);
    const double i4 = report.mean_species_iterations(4, 0, 2);
    EXPECT_NEAR(e0, 30.0, 6.0);
    EXPECT_LT(e4, 0.6 * e0);
    EXPECT_GT(e4, 2.0);
    EXPECT_NEAR(i0, 5.0, 2.0);
    EXPECT_LT(i4, i0);
    // Electron systems are much harder than ion systems (Fig. 2).
    EXPECT_GT(e0, 3.0 * i0);
    for (int k = 1; k < 5; ++k) {
        EXPECT_LE(report.mean_species_iterations(k, 1, 2),
                  report.mean_species_iterations(k - 1, 1, 2) + 0.51)
            << "electron counts must not increase at picard " << k;
    }
}

TEST_F(PicardFixture, WarmStartReducesTotalIterations)
{
    const auto warm = run(true);
    const auto cold = run(false);
    std::int64_t warm_total = 0;
    std::int64_t cold_total = 0;
    for (int k = 0; k < 5; ++k) {
        warm_total += warm.linear_logs[static_cast<std::size_t>(k)]
                          .total_iterations();
        cold_total += cold.linear_logs[static_cast<std::size_t>(k)]
                          .total_iterations();
    }
    EXPECT_LT(warm_total, cold_total);
    // Fig. 8 text: zero-guess electron count stays ~35 at every Picard
    // iteration.
    const double cold_e0 = cold.mean_species_iterations(0, 1, 2);
    const double cold_e4 = cold.mean_species_iterations(4, 1, 2);
    EXPECT_NEAR(cold_e0, cold_e4, 0.25 * cold_e0);
}

TEST_F(PicardFixture, ConservationFixedToMachinePrecision)
{
    const auto report = run(true);
    EXPECT_LT(report.max_conservation_error(), 1e-12);
    // The raw (unfixed) solution drifts by the discretization error.
    real_type raw = 0;
    for (const auto e : report.raw_conservation_errors) {
        raw = std::max(raw, e);
    }
    EXPECT_GT(raw, 1e-12);
    EXPECT_LT(raw, 1e-2);
}

TEST_F(PicardFixture, AllLinearSolvesConverge)
{
    const auto report = run(true);
    for (const auto& log : report.linear_logs) {
        EXPECT_TRUE(log.all_converged());
    }
    EXPECT_TRUE(report.converged);
}

TEST_F(PicardFixture, NonlinearToleranceStopsEarly)
{
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-12;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 50;
    ps.nonlinear_tol = 1e-8;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    EXPECT_TRUE(report.converged);
    EXPECT_LT(report.picard_iterations, 50);
    EXPECT_LT(report.nonlinear_change, 1e-8);
}

TEST_F(PicardFixture, LooseLinearToleranceStallsPicard)
{
    // Section V of the paper: raising the linear tolerance above 1e-10
    // prevented the Picard loop from converging.
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-2;  // hopeless
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 20;
    ps.nonlinear_tol = 1e-9;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(report.picard_iterations, 20);
}

TEST(Physics, CollisionsIsotropizeTemperatureAnisotropy)
{
    // Start from an anisotropic bi-Maxwellian-like state (T_par > T_perp
    // via a parallel beam) and take several implicit collision steps: the
    // anisotropy ratio must decay monotonically toward 1.
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-10;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 3;

    const auto ratio_of = [&](size_type sys) {
        return temperature_anisotropy(
                   workload.grid(),
                   ConstVecView<real_type>(
                       workload.distributions().entry(sys)))
            .ratio();
    };
    const double before = ratio_of(1);  // electron: fast relaxation
    EXPECT_GT(before, 1.05);            // the beam loads T_par
    double prev = before;
    for (int step = 0; step < 4; ++step) {
        implicit_collision_step(workload, ps, make_reference_solver(s));
        const double now = ratio_of(1);
        EXPECT_LT(now, prev + 1e-6) << "step " << step;
        prev = now;
    }
    EXPECT_LT(std::abs(prev - 1.0), std::abs(before - 1.0));
}

TEST(Physics, MaxwellianHasUnitAnisotropyRatio)
{
    const VelocityGrid grid(32, 31);
    PlasmaState state;
    state.temperature = 1.3;
    state.u_par = 0.4;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto t = temperature_anisotropy(
        grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(t.ratio(), 1.0, 0.03);
    EXPECT_NEAR(t.t_par, state.temperature, 0.05 * state.temperature);
}

TEST(Spectrum, IonClusteredElectronSpread)
{
    // Fig. 2 of the paper: ion eigenvalues clustered around 1, electron
    // eigenvalues spread over a wider range of real parts. Run on a
    // smaller grid to keep the dense eigensolver fast.
    WorkloadParams wp;
    wp.n_vpar = 16;
    wp.n_vperp = 15;
    wp.num_mesh_nodes = 1;
    CollisionWorkload w(wp);
    auto a = w.make_matrix_batch();
    w.assemble_batch(w.distributions(), w.distributions(), 0.0035, a);
    const auto ion = lapack::summarize_spectrum(lapack::eigenvalues(a, 0));
    const auto ele = lapack::summarize_spectrum(lapack::eigenvalues(a, 1));
    EXPECT_GT(ion.clustered_fraction, 0.6);
    EXPECT_LT(ele.clustered_fraction, ion.clustered_fraction);
    EXPECT_GT(ele.max_real - ele.min_real,
              2.0 * (ion.max_real - ion.min_real));
    // Both well-conditioned: all eigenvalues in the right half plane.
    EXPECT_GT(ion.min_real, 0.0);
    EXPECT_GT(ele.min_real, 0.0);
}

}  // namespace
}  // namespace bsis::xgc
