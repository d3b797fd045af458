// Shared pieces of the whole-pipeline benchmark: the run report, timing
// statistics, readers for the program's phase histograms, the executor
// check, the result digest and the traced run's self-time analysis.
//
// Every layer is measured from outside the program: the benchmark times
// calls to public functions and reads the histograms the library already
// exports. Nothing here adds a timer inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/xrlflow.h"
#include "ir/executor.h"
#include "ir/graph.h"
#include "support/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string trace_dir = ".bench_build/traces";
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What one run reports. `end_to_end` holds the untraced metrics listed in
/// BENCHMARK.json; `layers` the traced run's per-layer metrics; `notes`
/// the workload-specific figures printed for people (train_s,
/// optimise_ms_p50, request_ms_tail, ...).
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> layers;
    std::vector<std::pair<std::string, Metric>> notes;
    std::string op; ///< What one sample of op_ms_* is, on this workload.
    std::string digest;

    void problem(const std::string& why);
    void note(const std::string& name, double value, const std::string& unit);
};

// -- statistics ---------------------------------------------------------------

double median(std::vector<double> values);

/// The highest percentile with at least 10 samples beyond it. With fewer
/// than 21 samples that percentile would not lie above the median, so the
/// maximum is reported (percentile 100).
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

double geomean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Distinct stream seed for item `index` of a workload run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt, std::uint64_t index);

/// Median of `repeats` timed calls of `setup`: the setup_s metric.
template <typename F>
double median_setup_seconds(int repeats, F&& setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const auto start = Clock::now();
        setup(i);
        times.push_back(seconds_since(start));
    }
    return median(times);
}

// -- the program's own phase histograms ------------------------------------------

/// Sum (µs) and count of every series of the registry's
/// xrlflow_rollout_phase_us and xrlflow_candidate_phase_us families, keyed
/// by "rollout/<phase>" and "candidates/<phase>". Diff two snapshots to
/// get one region's totals.
struct Phase_total {
    double sum_us = 0.0;
    std::uint64_t count = 0;
};
using Phase_totals = std::map<std::string, Phase_total>;

Phase_totals phase_totals();
Phase_totals operator-(const Phase_totals& after, const Phase_totals& before);
Phase_totals operator+(const Phase_totals& a, const Phase_totals& b);
Phase_total phase(const Phase_totals& totals, const std::string& key);

/// The per-layer metrics read straight from the phase histograms
/// (gnn.encode_*, core.agent.act_*, env.step_*, rules.*_us).
void add_phase_layers(Report& report, const Phase_totals& region);

// -- the smoke-scale X-RLflow configuration ------------------------------------

/// The repository's smoke-bench configuration (hidden 16, heads {64, 32},
/// 31 candidates, 40 steps, 6 inference roll-outs, minibatch 8, 2 epochs)
/// with a PPO update every `window` episodes.
xrl::Xrlflow_config smoke_config(std::uint64_t seed, int window);

/// Bytes of the agent's parameters, as the checkpoint writer stores them.
std::string parameter_bytes(xrl::Agent& agent);

// -- correctness -----------------------------------------------------------------

/// Tolerance of the executor check, relative to max(1, max |output|).
inline constexpr double executor_tolerance = 1e-3;

/// Executor check with the input's outputs computed once per input graph.
/// Bindings are seeded and keyed by node id (token-id inputs get valid row
/// indices), so a result must keep its input's ids.
class Verifier {
public:
    explicit Verifier(std::uint64_t seed) : seed_(seed) {}

    /// Largest |before - after| over all outputs of `result` against
    /// `input`, relative to max(1, |before|); infinity when the outputs do
    /// not match in count or shape.
    double error(const xrl::Graph& input, const xrl::Graph& result);

private:
    struct Reference {
        xrl::Binding_map bindings;
        std::vector<xrl::Tensor> outputs;
    };
    std::uint64_t seed_;
    std::map<std::uint64_t, Reference> references_;
};

/// Folds graph hashes and latency bits into the run's result digest.
class Digest {
public:
    void add(std::uint64_t value);
    void add(double value);
    void add(const std::string& bytes);
    std::string hex() const;

private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// -- per-layer helpers --------------------------------------------------------

/// Median time (µs) of E2e_simulator::noiseless_ms and
/// Cost_model::graph_cost_ms over `graphs` on `device`: cost.simulator_us_p50
/// and cost.cost_model_us_p50.
void add_cost_layers(Report& report, const std::vector<const xrl::Graph*>& graphs,
                     const xrl::Device_profile& device);

/// Candidates the policy saw per step and the share the action-space cap
/// cut off, from an Environment the benchmark drove itself for
/// `episodes` episodes of `steps` steps, `noop_endings` of them ended by
/// the No-Op (which does not regenerate candidates).
void add_environment_layers(Report& report, const xrl::Environment& env, int episodes, int steps,
                            int noop_endings);

// -- traced runs -----------------------------------------------------------------

/// Self time per layer from the buffered spans: each span's duration minus
/// the union of its children's intervals, summed by the layer its name
/// belongs to. Writes the spans as a Chrome trace to `path` and adds
/// trace.self_ms.<layer>, trace.spans and trace.dropped_spans.
void add_trace_layers(Report& report, const std::string& path);

/// Every per-layer metric the benchmark knows, so each traced run reports
/// the full set (zero for a layer that does no work on its workload).
void fill_missing_layers(Report& report);

} // namespace perfbench
