// Repository benchmark program: runs one workload through the library's
// public API and prints its raw measurements as one JSON object on the
// last line of stdout. perfbench/run.py builds this program, reduces the
// raw arrays to the metrics named in BENCHMARK.json and checks them; run
// the benchmark through it:
//
//   python3 perfbench/run.py --workload cold_batch --seed 7 --trace 0
//
// Direct use:
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    --threads T --workdir DIR
//   perfbench --selftest
//
// Workloads (perfbench/README.md says why each exists):
//   picard_campaign  128 mesh nodes x 2 species; a round is one
//                    implicit_collision_step (5 warm-started Picard
//                    iterations + moment fix), scalar path, telemetry off.
//   observed_batch   1000 mesh nodes x 2 species, first-Picard matrices
//                    assembled in setup; a round is one solve_batch from a
//                    zero guess on the scalar path with the metrics registry
//                    on and an obs::Monitor running.
//   cold_batch       observed_batch's inputs at lockstep width 8, telemetry
//                    off.
//
// Every time is taken from outside the library: the spans of this file
// wrap calls into each layer's public functions.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blas/batch_vector.hpp"
#include "blas/kernels.hpp"
#include "core/precond.hpp"
#include "core/solver.hpp"
#include "matrix/batch_csr.hpp"
#include "obs/attribution.hpp"
#include "obs/monitor.hpp"
#include "obs/telemetry.hpp"
#include "xgc/picard.hpp"
#include "xgc/workload.hpp"

namespace {

using namespace bsis;
using Clock = std::chrono::steady_clock;

constexpr real_type kTolerance = 1e-10;
constexpr int kMaxIterations = 500;
// Output check. A system fails when its solve did not converge, when its
// solution is not finite, or when its true residual ||b - A x||_2 exceeds
// the larger of kResidualSlack * tolerance and kAttainable * ||b||_2.
// BiCGStab stops on its recurrence residual; at an absolute tolerance of
// 1e-10 against ||b|| ~ 3e3 the true residual of a few systems stalls far
// above the tolerance (the residual gap of finite-precision BiCGStab, the
// same on every path and not closed by a tighter tolerance). kAttainable
// sits above that floor; a wrong answer misses it by orders of magnitude.
// Systems that pass only through the second term are counted as the
// residual gap, not as failures, while they are at most kMaxGapFraction
// of a solved batch (at most 0.2% at HEAD); beyond that every one of them
// fails, so a solver that stops all systems early cannot pass.
constexpr real_type kResidualSlack = 10;
constexpr real_type kAttainable = 1e-9;
constexpr double kMaxGapFraction = 0.01;
// The moment fix restores density, momentum and energy to rounding
// (~1e-15); a broken step misses this by far.
constexpr real_type kConservationLimit = 1e-8;
constexpr int kSetupRepeats = 5;
// The tail percentile needs at least ten rounds beyond it.
constexpr int kMinRounds = 11;
constexpr int kLockstepWidth = 8;
constexpr int kCampaignGaugeSerialSystems = 18;

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double peak_rss_kb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

// ----------------------------------------------------------- host gauge

/// A fixed piece of this file's own arithmetic, timed between rounds and
/// between set-ups to gauge how fast the host runs at that moment. The
/// host is a guest on a shared machine whose speed drifts by up to 1.8x
/// over minutes with the load of other tenants; the end-to-end metrics
/// rescale each wall time by the gauge passes on either side of it
/// (perfbench/metrics.py). The gauge calls no library code, so no change
/// to the library moves it.
///
/// A pass has the shape of a workload's round: CSR products and dot
/// products on cache-resident 992-row systems, over a batch split across
/// the OpenMP threads as the batch solves are, then a part on the calling
/// thread alone where the round has serial work (the campaign's
/// assembly).
class HostGauge {
public:
    explicit HostGauge(int serial_systems)
        : serial_systems_(serial_systems),
          row_ptrs_(kRows + 1),
          cols_(static_cast<std::size_t>(kRows) * kPerRow),
          values_(static_cast<std::size_t>(kMatrices) * kRows * kPerRow),
          x_(static_cast<std::size_t>(kSystems) * kRows)
    {
        for (int i = 0; i <= kRows; ++i) {
            row_ptrs_[static_cast<std::size_t>(i)] = i * kPerRow;
        }
        for (int i = 0; i < kRows; ++i) {
            for (int k = 0; k < kPerRow; ++k) {
                cols_[static_cast<std::size_t>(i * kPerRow + k)] =
                    (i + (k - kPerRow / 2) * 32 + kRows) % kRows;
            }
        }
        for (std::size_t k = 0; k < values_.size(); ++k) {
            values_[k] = 1.0 / static_cast<double>(1 + k % 97);
        }
        for (std::size_t k = 0; k < x_.size(); ++k) {
            x_[k] = 1.0 + 1e-3 * static_cast<double>(k % 89);
        }
        seconds();  // starts the thread team and warms the caches
    }

    /// Seconds a pass takes at the reference host speed: the usual speed
    /// of the 4-vCPU Xeon guest the benchmark was sized on, 3 threads.
    double reference_seconds() const
    {
        return kReferenceParallelS +
               serial_systems_ * kReferenceSerialSystemS;
    }

    /// Wall seconds of one pass.
    double seconds()
    {
        const auto t0 = Clock::now();
        double sum = 0;
#pragma omp parallel reduction(+ : sum)
        {
            std::vector<double> y(kRows);
#pragma omp for schedule(dynamic, 1)
            for (int sys = 0; sys < kSystems; ++sys) {
                sum += system(sys, y);
            }
        }
        {
            std::vector<double> y(kRows);
            for (int sys = 0; sys < serial_systems_; ++sys) {
                sum += system(sys % kSystems, y);
            }
        }
        const double s = seconds_since(t0);
        sink_ = sink_ + sum;
        return s;
    }

private:
    static constexpr int kRows = 992;
    static constexpr int kPerRow = 27;
    static constexpr int kSystems = 48;
    // The systems share a few matrices, so the gauge adds under 1 MB to
    // the process's peak resident set.
    static constexpr int kMatrices = 4;
    static constexpr int kSweeps = 48;
    static constexpr double kReferenceParallelS = 0.025;
    static constexpr double kReferenceSerialSystemS = 0.0015;

    /// kSweeps products and dot products of one system.
    double system(int sys, std::vector<double>& y) const
    {
        const double* v = values_.data() +
                          static_cast<std::size_t>(sys % kMatrices) * kRows *
                              kPerRow;
        const double* x = x_.data() + static_cast<std::size_t>(sys) * kRows;
        double acc = 0;
        for (int sweep = 0; sweep < kSweeps; ++sweep) {
            for (int i = 0; i < kRows; ++i) {
                double s = 0;
                for (int k = row_ptrs_[static_cast<std::size_t>(i)];
                     k < row_ptrs_[static_cast<std::size_t>(i) + 1]; ++k) {
                    s += v[k] * x[cols_[static_cast<std::size_t>(k)]];
                }
                y[static_cast<std::size_t>(i)] = s;
            }
            for (int i = 0; i < kRows; ++i) {
                acc += y[static_cast<std::size_t>(i)] * x[i];
            }
        }
        return acc;
    }

    int serial_systems_;
    std::vector<int> row_ptrs_;
    std::vector<int> cols_;
    std::vector<double> values_;
    std::vector<double> x_;
    volatile double sink_ = 0;
};

// ---------------------------------------------------------------- spans

/// Spans recorded in memory from this file around calls into the library
/// and written out at exit. Every span opens and closes on the main
/// thread, so the open span is a single index.
class SpanLog {
public:
    struct Span {
        const char* name;
        int parent;
        double begin_s;
        double end_s;
    };

    void set_enabled(bool on) { enabled_ = on; }

    int begin(const char* name)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back({name, open_, now(), 0.0});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void end(int id)
    {
        if (id < 0) {
            return;
        }
        spans_[static_cast<std::size_t>(id)].end_s = now();
        open_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    double duration(int id) const
    {
        const auto& s = spans_[static_cast<std::size_t>(id)];
        return s.end_s - s.begin_s;
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    std::vector<double> self_times() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] = duration(static_cast<int>(i));
        }
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0) {
                self[static_cast<std::size_t>(spans_[i].parent)] -=
                    duration(static_cast<int>(i));
            }
        }
        return self;
    }

    /// Chrome trace-event JSON (complete events, microseconds).
    bool write_chrome_trace(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}",
                         i == 0 ? "" : ",", s.name, s.begin_s * 1e6,
                         (s.end_s - s.begin_s) * 1e6, i, s.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    double now() const { return seconds_since(epoch_); }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
    bool enabled_ = false;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, const char* name)
        : log_(log), id_(log.begin(name))
    {}
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() { log_.end(id_); }

    int id() const { return id_; }

private:
    SpanLog& log_;
    int id_;
};

// -------------------------------------------------------- output checks

struct CheckResult {
    std::int64_t failed = 0;  ///< systems failing the output check
    /// Systems within kAttainable * ||b|| whose true residual exceeds
    /// kResidualSlack * tol; they count as failed too when they are more
    /// than kMaxGapFraction of the batch.
    std::int64_t gap_systems = 0;
    double max_residual_ratio = 0;  ///< max true residual / tolerance
};

/// Applies the output check to every system of a solved batch; `bad`
/// marks the systems that failed it.
CheckResult check_solutions(const BatchCsr<real_type>& a,
                            const BatchVector<real_type>& b,
                            const BatchVector<real_type>& x,
                            const BatchLog& log,
                            std::vector<unsigned char>& bad)
{
    const size_type nsys = a.num_batch();
    const index_type n = a.rows();
    bad.assign(static_cast<std::size_t>(nsys), 0);
    std::int64_t failed = 0;
    std::int64_t gap = 0;
    double max_ratio = 0;
#pragma omp parallel reduction(+ : failed, gap) reduction(max : max_ratio)
    {
        std::vector<real_type> ax(static_cast<std::size_t>(n));
#pragma omp for schedule(static)
        for (size_type sys = 0; sys < nsys; ++sys) {
            spmv(a.entry(sys), x.entry(sys), VecView<real_type>{ax.data(), n});
            const auto bv = b.entry(sys);
            real_type res2 = 0;
            real_type b2 = 0;
            for (index_type i = 0; i < n; ++i) {
                const real_type d = bv[i] - ax[static_cast<std::size_t>(i)];
                res2 += d * d;
                b2 += bv[i] * bv[i];
            }
            const real_type res = std::sqrt(res2);
            const real_type limit = std::max(kResidualSlack * kTolerance,
                                             kAttainable * std::sqrt(b2));
            if (!log.converged(sys) || !(res <= limit)) {
                bad[static_cast<std::size_t>(sys)] = 1;
                ++failed;
            } else if (res > kResidualSlack * kTolerance) {
                bad[static_cast<std::size_t>(sys)] = 2;
                ++gap;
            }
            max_ratio = std::max(max_ratio,
                                 std::isfinite(res)
                                     ? static_cast<double>(res / kTolerance)
                                     : HUGE_VAL);
        }
    }
    const bool gap_fails =
        static_cast<double>(gap) > kMaxGapFraction * static_cast<double>(nsys);
    for (auto& mark : bad) {
        if (mark == 2) {
            mark = gap_fails ? 1 : 0;
        }
    }
    if (gap_fails) {
        failed += gap;
    }
    return {failed, gap, max_ratio};
}

// ------------------------------------------------------------ workloads

enum class Workload { picard_campaign, cold_batch, observed_batch };

bool parse_workload(const std::string& name, Workload& out)
{
    if (name == "picard_campaign") {
        out = Workload::picard_campaign;
    } else if (name == "cold_batch") {
        out = Workload::cold_batch;
    } else if (name == "observed_batch") {
        out = Workload::observed_batch;
    } else {
        return false;
    }
    return true;
}

struct Options {
    Workload workload = Workload::cold_batch;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool trace = false;
    int threads = 1;
    std::string workdir = ".";
};

/// What the rounds of a run did, accumulated over rounds.
struct Tally {
    std::int64_t attempted = 0;  ///< system solves attempted
    std::int64_t failed = 0;     ///< solves that failed convergence or a check
    std::int64_t not_converged = 0;  ///< BatchLog failures alone
    std::int64_t gap_systems = 0;    ///< see CheckResult
    double max_residual_ratio = 0;
    std::int64_t iterations = 0;
    int max_iterations = 0;
    std::int64_t solve_calls = 0;
    double solve_s = 0;  ///< summed solve_batch call time
    double ledger_bytes = 0;
    double ledger_flops = 0;
    double conservation_err_max = 0;
    double nonlinear_residual_max = 0;
};

struct RoundTime {
    double wall_s = 0;  ///< timed region, output checks excluded
    double cpu_s = 0;   ///< process CPU over the same region
};

class Bench {
public:
    Bench(const Options& opt, SpanLog& spans)
        : opt_(opt), spans_(spans)
    {
        settings_.solver = SolverType::bicgstab;
        settings_.precond = PrecondType::jacobi;
        settings_.stop = StopType::abs_residual;
        settings_.tolerance = kTolerance;
        settings_.max_iterations = kMaxIterations;
        settings_.lockstep_width =
            opt.workload == Workload::cold_batch ? kLockstepWidth : 0;

        xgc::WorkloadParams params;
        params.num_mesh_nodes =
            opt.workload == Workload::picard_campaign ? 128 : 1000;
        params.seed = opt.seed;
        workload_ = std::make_unique<xgc::CollisionWorkload>(params);
        f0_ = workload_->distributions();
        if (opt.workload != Workload::picard_campaign) {
            a_ = workload_->make_matrix_batch();
            workload_->assemble_batch(f0_, f0_, picard_.dt, a_);
            x_ = BatchVector<real_type>(a_.num_batch(), a_.rows());
        }
        if (opt.workload == Workload::observed_batch) {
            set_telemetry(true);
        }
        Tally warmup;
        round(warmup);
    }

    ~Bench()
    {
        monitor_.reset();
        obs::set_metrics_enabled(false);
        if (!obs_dir_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(obs_dir_, ignored);
        }
    }

    Bench(const Bench&) = delete;
    Bench& operator=(const Bench&) = delete;

    int picard_iterations_per_round() const
    {
        return opt_.workload == Workload::picard_campaign
                   ? picard_.num_iterations
                   : 0;
    }

    /// Turns the library's telemetry (metrics registry + live monitor
    /// writing a promfile) on or off.
    void set_telemetry(bool on)
    {
        obs::set_metrics_enabled(on);
        if (on) {
            monitor().start();
        } else if (monitor_) {
            monitor_->stop();
        }
    }

    obs::Monitor& monitor()
    {
        if (!monitor_) {
            obs_dir_ = std::filesystem::path(opt_.workdir) /
                       ("obs-" + std::to_string(::getpid()));
            std::filesystem::create_directories(obs_dir_);
            obs::MonitorConfig config;
            config.prom_path = (obs_dir_ / "bsis.prom").string();
            monitor_ = std::make_unique<obs::Monitor>(obs::metrics(), config);
        }
        return *monitor_;
    }

    /// One timed round; the output checks run outside the returned time.
    /// `round_span` receives the round's span id (-1 when spans are off).
    RoundTime round(Tally& tally, int* round_span = nullptr)
    {
        return opt_.workload == Workload::picard_campaign
                   ? picard_round(tally, round_span)
                   : batch_round(tally, round_span);
    }

    /// One standalone assemble_batch call on this workload's batch, into a
    /// scratch matrix the probes below reuse; returns its seconds.
    double assemble_once()
    {
        if (probe_a_.num_batch() == 0) {
            probe_a_ = workload_->make_matrix_batch();
        }
        ScopedSpan span(spans_, "probe.xgc.assemble_batch");
        const auto t0 = Clock::now();
        workload_->assemble_batch(f0_, f0_, picard_.dt, probe_a_);
        return seconds_since(t0);
    }

    /// Standalone probes of single layers on system 0 of this workload's
    /// batch (call assemble_once first).
    struct Probes {
        std::vector<double> precond_setup_ns;
        std::vector<double> spmv_ns;
        std::vector<double> reduction_ns;
        std::vector<double> update_ns;
        std::vector<double> lanes8_pack_ns;
        std::vector<double> monitor_sample_s;
    };
    Probes probe();

private:
    /// Solves one batch and checks it; `bad` marks the systems that failed.
    BatchSolveResult solve_and_check(const BatchCsr<real_type>& a,
                                     const BatchVector<real_type>& b,
                                     BatchVector<real_type>& x,
                                     bool warm_start, Tally& tally,
                                     std::vector<unsigned char>& bad,
                                     double& check_s, double& check_cpu_s)
    {
        SolverSettings settings = settings_;
        settings.use_initial_guess = warm_start;
        BatchSolveResult result;
        {
            ScopedSpan span(spans_, "core.solve_batch");
            const auto t0 = Clock::now();
            result = solve_batch(a, b, x, settings);
            tally.solve_s += seconds_since(t0);
        }
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_seconds();
        {
            ScopedSpan span(spans_, "bench.check");
            const auto& log = result.log;
            const std::int64_t nsys = a.num_batch();
            tally.attempted += nsys;
            const auto check = check_solutions(a, b, x, log, bad);
            tally.failed += check.failed;
            tally.gap_systems += check.gap_systems;
            tally.max_residual_ratio =
                std::max(tally.max_residual_ratio, check.max_residual_ratio);
            for (size_type sys = 0; sys < nsys; ++sys) {
                tally.not_converged += log.converged(sys) ? 0 : 1;
            }
            tally.iterations += log.total_iterations();
            tally.max_iterations =
                std::max(tally.max_iterations, log.max_iterations());
            ++tally.solve_calls;
            obs::LedgerShape shape;
            shape.rows = a.rows();
            shape.stored_nnz = a.nnz_per_entry();
            shape.nnz_per_row = a.max_nnz_per_row();
            const auto ledger = obs::work_ledger(
                result.work, shape, obs::LedgerFormat::csr,
                static_cast<double>(log.total_iterations()),
                static_cast<double>(nsys));
            tally.ledger_bytes += ledger.total().bytes();
            tally.ledger_flops += ledger.total().flops;
        }
        check_s += seconds_since(t0);
        check_cpu_s += process_cpu_seconds() - cpu0;
        return result;
    }

    RoundTime picard_round(Tally& tally, int* round_span)
    {
        workload_->distributions() = f0_;
        double check_s = 0;
        double check_cpu_s = 0;
        std::vector<unsigned char> bad;
        const auto solve = [&](const BatchCsr<real_type>& a,
                               const BatchVector<real_type>& b,
                               BatchVector<real_type>& x, bool warm_start,
                               int /*picard_index*/) {
            return solve_and_check(a, b, x, warm_start, tally, bad, check_s,
                                   check_cpu_s)
                .log;
        };
        xgc::PicardReport report;
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_seconds();
        {
            ScopedSpan span(spans_, "xgc.implicit_collision_step");
            report = xgc::implicit_collision_step(*workload_, picard_, solve);
            if (round_span != nullptr) {
                *round_span = span.id();
            }
        }
        RoundTime time{seconds_since(t0) - check_s,
                       process_cpu_seconds() - cpu0 - check_cpu_s};

        // The step's own gauges: a system whose invariants drift, or a
        // non-finite nonlinear residual, fails its last solve.
        const bool residual_ok = std::isfinite(report.nonlinear_change);
        const auto& cons = report.conservation_errors;
        for (std::size_t sys = 0; sys < cons.size(); ++sys) {
            const bool ok = residual_ok && cons[sys] <= kConservationLimit;
            if (!ok && (sys >= bad.size() || bad[sys] == 0)) {
                ++tally.failed;
            }
        }
        tally.conservation_err_max =
            std::max(tally.conservation_err_max,
                     static_cast<double>(report.max_conservation_error()));
        tally.nonlinear_residual_max =
            std::max(tally.nonlinear_residual_max,
                     static_cast<double>(report.nonlinear_change));
        if (!residual_ok) {
            tally.nonlinear_residual_max = HUGE_VAL;
        }
        return time;
    }

    RoundTime batch_round(Tally& tally, int* round_span)
    {
        double check_s = 0;
        double check_cpu_s = 0;
        std::vector<unsigned char> bad;
        const auto t0 = Clock::now();
        const double cpu0 = process_cpu_seconds();
        {
            ScopedSpan span(spans_, "bench.round");
            solve_and_check(a_, f0_, x_, false, tally, bad, check_s,
                            check_cpu_s);
            if (round_span != nullptr) {
                *round_span = span.id();
            }
        }
        return {seconds_since(t0) - check_s,
                process_cpu_seconds() - cpu0 - check_cpu_s};
    }

    Options opt_;
    SpanLog& spans_;
    SolverSettings settings_;
    xgc::PicardSettings picard_;  // dt, 5 iterations, warm start, moment fix
    std::unique_ptr<xgc::CollisionWorkload> workload_;
    BatchVector<real_type> f0_;  ///< seeded initial distributions
    BatchCsr<real_type> a_;      ///< first-Picard matrices (batch workloads)
    BatchVector<real_type> x_;
    BatchCsr<real_type> probe_a_;  ///< assembled by assemble_once()
    std::filesystem::path obs_dir_;  ///< the monitor's promfile directory
    std::unique_ptr<obs::Monitor> monitor_;
};

volatile double g_sink = 0;

/// Per-call nanoseconds of `call`, as the median-ready samples of
/// `samples` batches of `calls` back-to-back calls each.
template <typename F>
std::vector<double> time_calls_ns(int samples, int calls, F&& call)
{
    std::vector<double> out;
    for (int s = 0; s < samples; ++s) {
        const auto t0 = Clock::now();
        for (int c = 0; c < calls; ++c) {
            call();
        }
        out.push_back(seconds_since(t0) * 1e9 / calls);
    }
    return out;
}

Bench::Probes Bench::probe()
{
    Probes p;
    constexpr int samples = 21;
    constexpr int calls = 2000;

    const auto sys = probe_a_.entry(0);
    const index_type n = probe_a_.rows();
    std::vector<real_type> v1(f0_.entry(0).begin(), f0_.entry(0).end());
    std::vector<real_type> v2(v1.rbegin(), v1.rend());
    std::vector<real_type> v3(static_cast<std::size_t>(n), 0.5);
    std::vector<real_type> out(static_cast<std::size_t>(n));
    const ConstVecView<real_type> x1(v1.data(), n);
    const ConstVecView<real_type> x2(v2.data(), n);
    const ConstVecView<real_type> x3(v3.data(), n);
    const VecView<real_type> y{out.data(), n};

    {
        ScopedSpan span(spans_, "probe.core.precond_setup");
        std::vector<real_type> work(static_cast<std::size_t>(n));
        JacobiPrec prec;
        p.precond_setup_ns = time_calls_ns(samples, calls, [&] {
            prec.generate(sys, VecView<real_type>{work.data(), n});
            g_sink = g_sink + work[0];
        });
    }
    {
        ScopedSpan span(spans_, "probe.matrix.spmv_csr");
        p.spmv_ns = time_calls_ns(samples, calls, [&] {
            spmv(sys, x1, y);
            g_sink = g_sink + out[0];
        });
    }
    {
        ScopedSpan span(spans_, "probe.blas.dot2");
        p.reduction_ns = time_calls_ns(samples, calls, [&] {
            real_type d1 = 0;
            real_type d2 = 0;
            blas::dot2(x1, x2, x3, d1, d2);
            g_sink = g_sink + d1 + d2;
        });
    }
    {
        ScopedSpan span(spans_, "probe.blas.zaxpby_nrm2");
        p.update_ns = time_calls_ns(samples, calls, [&] {
            g_sink = g_sink + blas::zaxpby_nrm2(real_type{0.5}, x1,
                                                real_type{-0.25}, x2, y);
        });
    }
    {
        ScopedSpan span(spans_, "probe.blas.lanes8_pack");
        std::vector<real_type> group(static_cast<std::size_t>(n) *
                                     kLockstepWidth);
        const LaneGroupView<real_type> g{group.data(), n, kLockstepWidth};
        int lane = 0;
        p.lanes8_pack_ns = time_calls_ns(samples, calls, [&] {
            pack_lane(x1, g, lane);
            unpack_lane(ConstLaneGroupView<real_type>(g), lane, y);
            lane = (lane + 1) % kLockstepWidth;
            g_sink = g_sink + out[1];
        });
    }
    {
        ScopedSpan span(spans_, "probe.obs.monitor_sample");
        auto& mon = monitor();
        for (int s = 0; s < samples; ++s) {
            const auto t0 = Clock::now();
            mon.sample_now();
            p.monitor_sample_s.push_back(seconds_since(t0));
        }
    }
    return p;
}

// ------------------------------------------------------------ reporting

class JsonOut {
public:
    void key(const char* k)
    {
        text_ += first_ ? "" : ",";
        first_ = false;
        text_ += '"';
        text_ += k;
        text_ += "\":";
    }
    void num(const char* k, double v)
    {
        key(k);
        append_num(v);
    }
    void str(const char* k, const std::string& v)
    {
        key(k);
        text_ += '"' + v + '"';
    }
    void arr(const char* k, const std::vector<double>& v)
    {
        key(k);
        text_ += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) {
                text_ += ',';
            }
            append_num(v[i]);
        }
        text_ += ']';
    }
    std::string finish() const { return "{" + text_ + "}"; }

private:
    void append_num(double v)
    {
        if (!std::isfinite(v)) {
            text_ += "null";
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        text_ += buf;
    }

    std::string text_;
    bool first_ = true;
};

void put_tally(JsonOut& out, const Tally& t)
{
    out.num("attempted", static_cast<double>(t.attempted));
    out.num("failed", static_cast<double>(t.failed));
    out.num("not_converged", static_cast<double>(t.not_converged));
    out.num("gap_systems", static_cast<double>(t.gap_systems));
    out.num("max_residual_ratio", t.max_residual_ratio);
    out.num("iterations", static_cast<double>(t.iterations));
    out.num("max_iterations", t.max_iterations);
    out.num("solve_calls", static_cast<double>(t.solve_calls));
    out.num("solve_s", t.solve_s);
    out.num("ledger_bytes", t.ledger_bytes);
    out.num("ledger_flops", t.ledger_flops);
    out.num("conservation_err_max", t.conservation_err_max);
    out.num("nonlinear_residual_max", t.nonlinear_residual_max);
}

void put_run_info(JsonOut& out, const Options& opt)
{
    out.str("compiler", PERFBENCH_CXX_COMPILER);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    out.num("bsis_native", PERFBENCH_BSIS_NATIVE);
    out.num("omp_threads", omp_get_max_threads());
    out.num("seed", static_cast<double>(opt.seed));
}

/// The untraced run: the end-to-end measurement.
std::string run_untraced(const Options& opt)
{
    SpanLog spans;  // stays disabled
    // The campaign's rounds spend about 70% of their time in serial
    // assembly; its gauge runs a serial part about as long as the
    // parallel one. The batch workloads' rounds are all parallel solves.
    HostGauge gauge(opt.workload == Workload::picard_campaign
                        ? kCampaignGaugeSerialSystems
                        : 0);
    // The gauge runs before the first set-up and after every set-up and
    // every round, so each timed stretch has a gauge on either side.
    std::vector<double> setup_s;
    std::vector<double> setup_gauge_s{gauge.seconds()};
    std::unique_ptr<Bench> bench;
    for (int k = 0; k < kSetupRepeats; ++k) {
        bench.reset();
        const auto t0 = Clock::now();
        bench = std::make_unique<Bench>(opt, spans);
        setup_s.push_back(seconds_since(t0));
        setup_gauge_s.push_back(gauge.seconds());
    }

    Tally tally;
    std::vector<double> round_s;
    std::vector<double> round_gauge_s{setup_gauge_s.back()};
    const auto start = Clock::now();
    while (seconds_since(start) < opt.seconds ||
           static_cast<int>(round_s.size()) < kMinRounds) {
        round_s.push_back(bench->round(tally).wall_s);
        round_gauge_s.push_back(gauge.seconds());
    }

    JsonOut out;
    put_run_info(out, opt);
    out.arr("setup_s", setup_s);
    out.arr("setup_gauge_s", setup_gauge_s);
    out.arr("round_s", round_s);
    out.arr("round_gauge_s", round_gauge_s);
    out.num("gauge_reference_s", gauge.reference_seconds());
    put_tally(out, tally);
    bench.reset();
    out.num("peak_rss_kb", peak_rss_kb());
    return out.finish();
}

/// The traced run: per-layer numbers. Rounds alternate ABBA between spans
/// on and off (the benchmark's own tracing cost), then between library
/// telemetry on and off (its cost), then each layer is probed alone.
std::string run_traced(const Options& opt)
{
    SpanLog spans;
    double setup_s = 0;
    std::unique_ptr<Bench> bench;
    {
        const auto t0 = Clock::now();
        bench = std::make_unique<Bench>(opt, spans);
        setup_s = seconds_since(t0);
    }

    // ABBA pairs: pair i runs (on, off) when i is even, (off, on) when odd,
    // then `after_pair`.
    const auto abba = [](double budget_s,
                         const std::function<RoundTime(bool)>& run,
                         const std::function<void()>& after_pair,
                         std::vector<double>& on_s,
                         std::vector<double>& off_s) {
        const auto start = Clock::now();
        for (int i = 0; seconds_since(start) < budget_s || i < 2; ++i) {
            const bool on_first = i % 2 == 0;
            const double first = run(on_first).wall_s;
            const double second = run(!on_first).wall_s;
            on_s.push_back(on_first ? first : second);
            off_s.push_back(on_first ? second : first);
            after_pair();
        }
    };

    // Phase 1: rounds with and without spans; the traced rounds give the
    // span-derived layer numbers. A standalone assembly follows each pair,
    // so assembly and step times are sampled over the same stretch of the
    // run and their ratio does not pick up drift in machine speed.
    std::vector<double> assemble_s;
    Tally traced;
    Tally untraced;
    std::vector<int> round_spans;
    double traced_cpu_s = 0;
    std::vector<double> traced_s;
    std::vector<double> untraced_s;
    abba(0.5 * opt.seconds,
         [&](bool on) {
             spans.set_enabled(on);
             int id = -1;
             const auto t = bench->round(on ? traced : untraced, &id);
             spans.set_enabled(false);
             if (on) {
                 round_spans.push_back(id);
                 traced_cpu_s += t.cpu_s;
             }
             return t;
         },
         [&] {
             spans.set_enabled(true);
             assemble_s.push_back(bench->assemble_once());
             spans.set_enabled(false);
         },
         traced_s, untraced_s);
    std::vector<double> step_self_s;
    const auto self = spans.self_times();
    for (const int id : round_spans) {
        step_self_s.push_back(self[static_cast<std::size_t>(id)]);
    }
    double traced_wall_s = 0;
    for (const double s : traced_s) {
        traced_wall_s += s;
    }

    // Phase 2: library telemetry (metrics registry + monitor) on vs off.
    Tally telemetry;
    std::vector<double> telemetry_on_s;
    std::vector<double> telemetry_off_s;
    std::int64_t ticks = 0;
    abba(0.5 * opt.seconds,
         [&](bool on) {
             bench->set_telemetry(on);
             const std::int64_t ticks0 = on ? bench->monitor().ticks() : 0;
             const auto t = bench->round(telemetry);
             if (on) {
                 ticks += bench->monitor().ticks() - ticks0;
             }
             bench->set_telemetry(false);
             return t;
         },
         [] {}, telemetry_on_s, telemetry_off_s);
    bench->set_telemetry(true);  // populated registry for the monitor probe

    spans.set_enabled(true);
    const auto probes = bench->probe();
    spans.set_enabled(false);

    const auto trace_path =
        std::filesystem::path(opt.workdir) /
        ("trace-" + std::to_string(::getpid()) + ".json");
    const bool wrote = spans.write_chrome_trace(trace_path.string());

    JsonOut out;
    put_run_info(out, opt);
    out.num("setup_s", setup_s);
    out.num("picard_iterations_per_round",
            bench->picard_iterations_per_round());
    out.num("threads", opt.threads);
    out.arr("traced_round_s", traced_s);
    out.arr("untraced_round_s", untraced_s);
    out.arr("step_self_s", step_self_s);
    out.num("traced_cpu_s", traced_cpu_s);
    out.num("traced_wall_s", traced_wall_s);
    put_tally(out, traced);
    out.num("untraced_attempted", static_cast<double>(untraced.attempted));
    out.num("untraced_failed", static_cast<double>(untraced.failed));
    out.num("telemetry_attempted", static_cast<double>(telemetry.attempted));
    out.num("telemetry_failed", static_cast<double>(telemetry.failed));
    out.arr("telemetry_on_s", telemetry_on_s);
    out.arr("telemetry_off_s", telemetry_off_s);
    out.num("monitor_ticks", static_cast<double>(ticks));
    out.arr("assemble_s", assemble_s);
    out.arr("precond_setup_ns", probes.precond_setup_ns);
    out.arr("spmv_ns", probes.spmv_ns);
    out.arr("reduction_ns", probes.reduction_ns);
    out.arr("update_ns", probes.update_ns);
    out.arr("lanes8_pack_ns", probes.lanes8_pack_ns);
    out.arr("monitor_sample_s", probes.monitor_sample_s);
    out.str("trace_file", wrote ? trace_path.filename().string() : "");
    bench.reset();
    out.num("peak_rss_kb", peak_rss_kb());
    return out.finish();
}

// ------------------------------------------------------------ self-test

int selftest_failures = 0;

void expect(bool ok, const char* what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) {
        ++selftest_failures;
    }
}

/// The output check must count a deliberately corrupted solution, a
/// non-finite one, a system the solver reports as not converged, and a
/// batch whose every system stopped short of the tolerance.
int run_selftest()
{
    // 128 systems: one residual-gap system stays within kMaxGapFraction.
    xgc::WorkloadParams params;
    params.num_mesh_nodes = 64;
    xgc::CollisionWorkload workload(params);
    const auto& b = workload.distributions();
    auto a = workload.make_matrix_batch();
    workload.assemble_batch(b, b, xgc::PicardSettings{}.dt, a);
    BatchVector<real_type> x(a.num_batch(), a.rows());
    SolverSettings settings;
    settings.tolerance = kTolerance;
    settings.max_iterations = kMaxIterations;
    const auto result = solve_batch(a, b, x, settings);
    std::vector<unsigned char> bad;
    const index_type n = a.rows();

    auto check = check_solutions(a, b, x, result.log, bad);
    expect(check.failed == 0, "a converged solve passes the output check");

    // Perturbs entry i of system sys of `out` so that ||b - A x|| grows by
    // about `residual` (the perturbation over the norm of column i).
    const auto perturb = [&](BatchVector<real_type>& out, size_type sys,
                             index_type i, real_type residual) {
        std::vector<real_type> e(static_cast<std::size_t>(n), 0);
        std::vector<real_type> col(static_cast<std::size_t>(n));
        e[static_cast<std::size_t>(i)] = 1;
        spmv(a.entry(sys), ConstVecView<real_type>(e.data(), n),
             VecView<real_type>{col.data(), n});
        real_type norm = 0;
        for (const real_type c : col) {
            norm += c * c;
        }
        out.entry(sys)[i] += residual / std::sqrt(norm);
    };
    const auto perturbed = [&](size_type sys, index_type i,
                               real_type residual) {
        auto out = x;
        perturb(out, sys, i, residual);
        return out;
    };

    check = check_solutions(a, b, perturbed(1, 400, 1e-3), result.log, bad);
    expect(check.failed == 1 && bad[1] == 1 && check.gap_systems == 0,
           "a corrupted solution fails the output check");

    check = check_solutions(a, b, perturbed(3, 400, 100 * kTolerance),
                            result.log, bad);
    expect(check.failed == 0 && check.gap_systems == 1 &&
               check.max_residual_ratio > 50,
           "a residual above 10x tolerance but within the attainable floor "
           "counts as residual gap, not failure");

    auto all_short = x;
    for (size_type sys = 0; sys < a.num_batch(); ++sys) {
        perturb(all_short, sys, 400, 100 * kTolerance);
    }
    check = check_solutions(a, b, all_short, result.log, bad);
    expect(check.gap_systems == a.num_batch() &&
               check.failed == a.num_batch() &&
               std::count(bad.begin(), bad.end(), 1) == a.num_batch(),
           "a batch whose every residual is 100x tolerance fails: more than "
           "1% residual-gap systems");

    auto poisoned = x;
    poisoned.entry(2)[0] = std::nan("");
    check = check_solutions(a, b, poisoned, result.log, bad);
    expect(check.failed == 1 && bad[2] == 1 &&
               std::isinf(check.max_residual_ratio),
           "a non-finite solution fails the output check");

    SolverSettings capped = settings;
    capped.max_iterations = 1;
    BatchVector<real_type> x1(a.num_batch(), a.rows());
    const auto short_run = solve_batch(a, b, x1, capped);
    check = check_solutions(a, b, x, short_run.log, bad);
    expect(check.failed == a.num_batch(),
           "a system the solver reports unconverged fails");
    return selftest_failures == 0 ? 0 : 1;
}

int usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "W --seed N --seconds S --trace 0|1 --threads T --workdir "
                 "DIR | --selftest\n",
                 msg);
    return 2;
}

}  // namespace

int main(int argc, char** argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            return run_selftest();
        }
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            if (!parse_workload(value, opt.workload)) {
                return usage(("unknown workload " + value).c_str());
            }
            have_workload = true;
            continue;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = std::strtol(value.c_str(), &end, 10) != 0;
        } else if (arg == "--threads") {
            opt.threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (arg == "--workdir") {
            opt.workdir = value;
            continue;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end == nullptr || *end != '\0' || value.empty()) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload || opt.threads < 1 || !(opt.seconds > 0)) {
        return usage("need --workload, --threads >= 1 and --seconds > 0");
    }
    omp_set_num_threads(opt.threads);
    try {
        const std::string json =
            opt.trace ? run_traced(opt) : run_untraced(opt);
        std::printf("%s\n", json.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
