// Phase taxonomy and per-thread phase-time accumulation (the measurement
// half of the performance-attribution layer; see obs/attribution.hpp for
// the modeled half).
//
// Every `obs::traced` span in the solver kernels names one of a fixed,
// small set of phase kinds -- an SpMV sweep, a preconditioner
// application, a block-wide reduction, a streaming vector update. The
// accumulator tallies wall nanoseconds, thread-CPU nanoseconds and call
// counts per kind into
// per-thread cache-line-aligned shards of relaxed atomics, so the hot
// loops never contend and never take a lock; totals() sums the shards.
// Recording is gated by `obs::metrics_enabled()` (see obs/telemetry.hpp):
// disabled cost is one relaxed load per span.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/sharding.hpp"

namespace bsis::obs {

/// Kernel phase kinds, matching the span names used since the telemetry
/// PR ("spmv", "precond_apply", "reduction", "update"). `other` collects
/// spans that do not map onto the ledger (assembly, logging).
enum class Phase : int {
    spmv = 0,
    precond = 1,
    reduction = 2,
    update = 3,
    other = 4,
};

inline constexpr int phase_count = 5;

/// Canonical span name of a phase (static storage; safe as a TraceEvent
/// name).
inline const char* phase_name(Phase phase)
{
    switch (phase) {
    case Phase::spmv:
        return "spmv";
    case Phase::precond:
        return "precond_apply";
    case Phase::reduction:
        return "reduction";
    case Phase::update:
        return "update";
    case Phase::other:
        return "other";
    }
    return "other";
}

/// Point-in-time sum over every shard: wall seconds, thread-CPU seconds
/// and span count per phase kind. Subtraction gives the delta
/// attributable to one solve. Both clocks are summed over the threads
/// that recorded, so a delta of a multi-threaded solve holds
/// thread-seconds; wall_clock() turns `seconds[]` into wall-clock time
/// (thread-seconds / threads that recorded). Wall time is what bandwidth
/// attribution wants (achieved GB/s is a wall-clock fact, set against a
/// node-wide peak); thread-summed CPU time is what drift detection wants
/// -- a scheduler preemption landing inside one span inflates its wall
/// share arbitrarily but leaves its CPU share intact, so share
/// comparisons against the model stay meaningful on a loaded machine.
struct PhaseTotals {
    double seconds[phase_count] = {};
    double cpu_seconds[phase_count] = {};
    std::int64_t calls[phase_count] = {};

    double total_seconds() const
    {
        double sum = 0;
        for (const double s : seconds) {
            sum += s;
        }
        return sum;
    }

    double total_cpu_seconds() const
    {
        double sum = 0;
        for (const double s : cpu_seconds) {
            sum += s;
        }
        return sum;
    }

    PhaseTotals operator-(const PhaseTotals& earlier) const
    {
        PhaseTotals d;
        for (int p = 0; p < phase_count; ++p) {
            d.seconds[p] = seconds[p] - earlier.seconds[p];
            d.cpu_seconds[p] = cpu_seconds[p] - earlier.cpu_seconds[p];
            d.calls[p] = calls[p] - earlier.calls[p];
        }
        return d;
    }

    /// This delta with `seconds[]` divided by the number of threads that
    /// recorded it in parallel (see recording_threads). Each thread's
    /// spans lie inside the measured interval and do not overlap one
    /// another, so the result stays within the interval's wall time.
    /// `cpu_seconds[]` and `calls[]` keep their thread sums.
    PhaseTotals wall_clock(int threads) const
    {
        PhaseTotals w = *this;
        if (threads > 1) {
            for (double& s : w.seconds) {
                s /= threads;
            }
        }
        return w;
    }
};

/// Number of shards whose span count changed between two
/// PhaseAccumulator::shard_calls() snapshots -- the threads that recorded
/// in between. Shards registered after `before` was taken count from 0.
inline int recording_threads(const std::vector<std::int64_t>& before,
                             const std::vector<std::int64_t>& after)
{
    int threads = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
        const std::int64_t earlier = i < before.size() ? before[i] : 0;
        threads += after[i] != earlier ? 1 : 0;
    }
    return threads;
}

/// Per-thread sharded phase-time tally. add() is wait-free (two relaxed
/// fetch_adds on the calling thread's own cache line); totals() sums the
/// shards with relaxed loads -- callers measure before/after deltas
/// around a solve, so in-flight recording only blurs a delta by the spans
/// racing the snapshot.
class PhaseAccumulator {
public:
    void add(Phase phase, std::int64_t wall_ns, std::int64_t cpu_ns)
    {
        auto& shard = shards_.local();
        const auto p = static_cast<int>(phase);
        shard.ns[p].fetch_add(wall_ns, std::memory_order_relaxed);
        shard.cpu_ns[p].fetch_add(cpu_ns, std::memory_order_relaxed);
        shard.calls[p].fetch_add(1, std::memory_order_relaxed);
    }

    PhaseTotals totals() const
    {
        PhaseTotals t;
        shards_.for_each([&](const Shard& shard) {
            for (int p = 0; p < phase_count; ++p) {
                t.seconds[p] +=
                    1e-9 * static_cast<double>(
                               shard.ns[p].load(std::memory_order_relaxed));
                t.cpu_seconds[p] +=
                    1e-9 *
                    static_cast<double>(
                        shard.cpu_ns[p].load(std::memory_order_relaxed));
                t.calls[p] +=
                    shard.calls[p].load(std::memory_order_relaxed);
            }
        });
        return t;
    }

    /// Span count of every shard (all phases), in registration order.
    /// Cold path: solve_batch diffs two of these to find how many threads
    /// a solve's phase times were summed over (recording_threads).
    std::vector<std::int64_t> shard_calls() const
    {
        std::vector<std::int64_t> out;
        shards_.for_each([&](const Shard& shard) {
            std::int64_t sum = 0;
            for (int p = 0; p < phase_count; ++p) {
                sum += shard.calls[p].load(std::memory_order_relaxed);
            }
            out.push_back(sum);
        });
        return out;
    }

    /// Zeroes every shard (tests; not needed for delta-based use).
    void reset()
    {
        shards_.for_each([](Shard& shard) {
            for (int p = 0; p < phase_count; ++p) {
                shard.ns[p].store(0, std::memory_order_relaxed);
                shard.cpu_ns[p].store(0, std::memory_order_relaxed);
                shard.calls[p].store(0, std::memory_order_relaxed);
            }
        });
    }

private:
    struct alignas(64) Shard {
        int index = 0;  ///< registration order (required by PerThreadShards)
        std::atomic<std::int64_t> ns[phase_count] = {};
        std::atomic<std::int64_t> cpu_ns[phase_count] = {};
        std::atomic<std::int64_t> calls[phase_count] = {};
    };

    PerThreadShards<Shard> shards_;
};

/// The process-wide accumulator every `obs::traced` span records into
/// while metrics are enabled.
PhaseAccumulator& phase_times();

}  // namespace bsis::obs
