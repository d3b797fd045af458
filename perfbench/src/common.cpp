#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/checkpoint.h"
#include "cost/cost_model.h"
#include "cost/e2e_simulator.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace perfbench {

using namespace xrl;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report::problem(const std::string& why)
{
    correct = false;
    problems.push_back(why);
}

void Report::note(const std::string& name, double value, const std::string& unit)
{
    notes.emplace_back(name, Metric{value, unit});
}

// -- statistics ---------------------------------------------------------------

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values)
{
    Tail out;
    out.samples = values.size();
    if (values.empty()) return out;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 21) {
        out.value = values.back();
        return out;
    }
    // Sample k (0-based) has n-1-k samples beyond it; the last one with at
    // least 10 is k = n-11, which sits at percentile 100*(k+1)/n.
    const std::size_t k = n - 11;
    out.value = values[k];
    out.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    return out;
}

double geomean(const std::vector<double>& values)
{
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double v : values) log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt, std::uint64_t index)
{
    // splitmix64 over the three inputs; never 0 (0 means "config default"
    // to Inference_options).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

// -- phase histograms ---------------------------------------------------------

Phase_totals phase_totals()
{
    Phase_totals totals;
    for (const auto& family : Metrics_registry::global().snapshot()) {
        const char* prefix = family.name == "xrlflow_rollout_phase_us"     ? "rollout/"
                             : family.name == "xrlflow_candidate_phase_us" ? "candidates/"
                                                                           : nullptr;
        if (prefix == nullptr) continue;
        for (const auto& series : family.series) {
            if (!series.histogram) continue;
            for (const auto& [key, value] : series.labels)
                if (key == "phase")
                    totals[prefix + value] = {series.histogram->sum, series.histogram->count};
        }
    }
    return totals;
}

Phase_totals operator-(const Phase_totals& after, const Phase_totals& before)
{
    Phase_totals out = after;
    for (const auto& [key, total] : before) {
        Phase_total& slot = out[key];
        slot.sum_us -= total.sum_us;
        slot.count -= total.count;
    }
    return out;
}

Phase_totals operator+(const Phase_totals& a, const Phase_totals& b)
{
    Phase_totals out = a;
    for (const auto& [key, total] : b) {
        Phase_total& slot = out[key];
        slot.sum_us += total.sum_us;
        slot.count += total.count;
    }
    return out;
}

Phase_total phase(const Phase_totals& totals, const std::string& key)
{
    const auto it = totals.find(key);
    return it == totals.end() ? Phase_total{} : it->second;
}

void add_phase_layers(Report& report, const Phase_totals& region)
{
    const auto put = [&](const std::string& name, const std::string& key) {
        const Phase_total total = phase(region, key);
        report.layers[name + "_us"] = {total.sum_us, "us"};
        report.layers[name + "_calls"] = {static_cast<double>(total.count), "count"};
    };
    put("gnn.encode", "rollout/gnn_encode");
    put("core.agent.act", "rollout/gnn_inference");
    put("env.step", "rollout/env_step");
    for (const char* name : {"index_build", "match", "dedup", "materialise", "finalise_rewrite"})
        report.layers[std::string("rules.") + name + "_us"] = {
            phase(region, std::string("candidates/") + name).sum_us, "us"};
}

// -- configuration ------------------------------------------------------------

Xrlflow_config smoke_config(std::uint64_t seed, int window)
{
    Xrlflow_config config;
    config.seed = seed;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.gnn.num_gat_layers = 5;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = 40;
    config.env.feedback_frequency = 5;
    config.inference_rollouts = 6;
    config.trainer.update_every_episodes = window;
    config.trainer.ppo.minibatch_size = 8;
    config.trainer.ppo.epochs = 2;
    config.trainer.seed = seed;
    return config;
}

std::string parameter_bytes(Agent& agent)
{
    std::ostringstream os;
    save_parameters(os, agent.parameters());
    return os.str();
}

// -- correctness -----------------------------------------------------------------

namespace {

Binding_map bindings_for(const Graph& graph, std::uint64_t seed)
{
    Rng rng(seed);
    Binding_map bindings;
    for (const Node_id id : graph.node_ids()) {
        const Node& node = graph.node(id);
        if (node.kind != Op_kind::input) continue;
        const Shape& shape = node.output_shapes.front();
        if (node.name == "token-ids") {
            Tensor ids(shape);
            for (std::int64_t i = 0; i < ids.volume(); ++i)
                ids.at(i) = static_cast<float>(rng.uniform_index(512));
            bindings.emplace(id, std::move(ids));
        } else {
            bindings.emplace(id, Tensor::random_uniform(shape, rng, -0.5F, 0.5F));
        }
    }
    return bindings;
}

double relative_error(const std::vector<Tensor>& before, const std::vector<Tensor>& after)
{
    if (before.size() != after.size()) return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i].shape() != after[i].shape()) return std::numeric_limits<double>::infinity();
        double scale = 1.0;
        for (std::int64_t j = 0; j < before[i].volume(); ++j)
            scale = std::max(scale, static_cast<double>(std::fabs(before[i].at(j))));
        const double diff = Tensor::max_abs_difference(before[i], after[i]);
        if (!std::isfinite(diff)) return std::numeric_limits<double>::infinity();
        worst = std::max(worst, diff / scale);
    }
    return worst;
}

} // namespace

double Verifier::error(const Graph& input, const Graph& result)
{
    auto it = references_.find(input.model_hash());
    if (it == references_.end()) {
        Reference reference;
        reference.bindings = bindings_for(input, seed_);
        reference.outputs = execute(input, reference.bindings);
        it = references_.emplace(input.model_hash(), std::move(reference)).first;
    }
    return relative_error(it->second.outputs, execute(result, it->second.bindings));
}

void Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state_ ^= (value >> (8 * i)) & 0xffU;
        state_ *= 0x100000001b3ULL;
    }
}

void Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void Digest::add(const std::string& bytes)
{
    for (const char c : bytes) {
        state_ ^= static_cast<unsigned char>(c);
        state_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(bytes.size()));
}

std::string Digest::hex() const
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(state_));
    return buffer;
}

// -- per-layer helpers --------------------------------------------------------

void add_cost_layers(Report& report, const std::vector<const Graph*>& graphs,
                     const Device_profile& device)
{
    const E2e_simulator simulator(device, 0);
    const Cost_model cost_model(device);
    std::vector<double> simulator_us;
    std::vector<double> cost_model_us;
    double sink = 0.0;
    const Trace_scope trace(trace_enabled() ? new_trace_id() : 0, 0);
    for (int round = 0; round < 5; ++round)
        for (const Graph* graph : graphs) {
            {
                const Span_scope span("bench/simulator");
                const auto start = Clock::now();
                sink += simulator.noiseless_ms(*graph);
                simulator_us.push_back(seconds_since(start) * 1e6);
            }
            {
                const Span_scope span("bench/cost_model");
                const auto start = Clock::now();
                sink += cost_model.graph_cost_ms(*graph);
                cost_model_us.push_back(seconds_since(start) * 1e6);
            }
        }
    if (!std::isfinite(sink)) report.problem("cost model returned a non-finite latency");
    report.layers["cost.simulator_us_p50"] = {median(simulator_us), "us"};
    report.layers["cost.cost_model_us_p50"] = {median(cost_model_us), "us"};
}

void add_environment_layers(Report& report, const Environment& env, int episodes, int steps,
                            int noop_endings)
{
    // The constructor and every reset regenerate candidates, and so does
    // every step except a terminating No-Op.
    const double regenerations = 1.0 + episodes + steps - noop_endings;
    const double observed = env.mean_candidates_per_step() * regenerations;
    const auto truncated = static_cast<double>(env.truncated_candidates());
    report.layers["env.candidates_per_step"] = {env.mean_candidates_per_step(), "count"};
    report.layers["env.truncated_frac"] = {
        observed + truncated > 0.0 ? truncated / (observed + truncated) : 0.0, "ratio"};
}

// -- traced runs -----------------------------------------------------------------

namespace {

const char* const layer_names[] = {"core",  "nn",         "gnn",   "env", "rules",
                                   "cost",  "optimizers", "serve", "net"};

/// The module a span's body belongs to. The benchmark's own spans carry
/// the layer they wrap; the program's spans are named by their subsystem.
std::string layer_of(const std::string& name)
{
    static const std::unordered_map<std::string, std::string> exact = {
        {"bench/run_episode", "core"},
        {"bench/optimise", "core"},        {"bench/ppo_update", "nn"},
        {"bench/simulator", "cost"},       {"bench/cost_model", "cost"},
        {"bench/request", "net"},          {"bench/codec", "net"},
        {"rollout/gnn_encode", "gnn"},     {"rollout/gnn_inference", "core"},
        {"rollout/env_step", "env"},       {"shard/execute", "optimizers"},
        {"router/dispatch", "serve"},
    };
    if (const auto it = exact.find(name); it != exact.end()) return it->second;
    if (name.rfind("candidates/", 0) == 0) return "rules";
    if (name.rfind("client/", 0) == 0 || name.rfind("daemon/", 0) == 0) return "net";
    return "serve";
}

} // namespace

void add_trace_layers(Report& report, const std::string& path)
{
    const std::vector<Trace_span> spans = Trace_buffer::global().spans();
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    {
        std::ofstream out(path, std::ios::trunc);
        write_chrome_trace(out, spans);
    }

    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent_span != 0) children[spans[i].parent_span].push_back(i);

    std::map<std::string, double> self_us;
    for (const char* layer : layer_names) self_us[layer] = 0.0;
    for (const Trace_span& span : spans) {
        const std::uint64_t begin = span.start_us;
        const std::uint64_t end = span.start_us + span.duration_us;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
        if (const auto it = children.find(span.span_id); it != children.end())
            for (const std::size_t c : it->second) {
                const std::uint64_t cb = std::max(begin, spans[c].start_us);
                const std::uint64_t ce = std::min(end, spans[c].start_us + spans[c].duration_us);
                if (cb < ce) covered.emplace_back(cb, ce);
            }
        std::sort(covered.begin(), covered.end());
        std::uint64_t union_us = 0;
        std::uint64_t reach = begin;
        for (const auto& [cb, ce] : covered) {
            const std::uint64_t from = std::max(cb, reach);
            if (ce > from) {
                union_us += ce - from;
                reach = ce;
            }
        }
        self_us[layer_of(span.name)] += static_cast<double>(span.duration_us - union_us);
    }
    for (const auto& [layer, us] : self_us)
        report.layers["trace.self_ms." + layer] = {us / 1000.0, "ms"};
    report.layers["trace.spans"] = {static_cast<double>(spans.size()), "count"};
    report.layers["trace.dropped_spans"] = {
        static_cast<double>(Trace_buffer::global().dropped()), "count"};
}

void fill_missing_layers(Report& report)
{
    static const std::pair<const char*, const char*> all[] = {
        {"core.trainer.rollout_s", "s"},
        {"core.trainer.ppo_update_s", "s"},
        {"core.trainer.ppo_update_share", "ratio"},
        {"core.trainer.update_us_per_sample", "us"},
        {"core.trainer.transitions", "count"},
        {"gnn.encode_us", "us"},
        {"gnn.encode_calls", "count"},
        {"core.agent.act_us", "us"},
        {"core.agent.act_calls", "count"},
        {"env.step_us", "us"},
        {"env.step_calls", "count"},
        {"env.candidates_per_step", "count"},
        {"env.truncated_frac", "ratio"},
        {"core.xrlflow.other_us", "us"},
        {"rules.index_build_us", "us"},
        {"rules.match_us", "us"},
        {"rules.dedup_us", "us"},
        {"rules.materialise_us", "us"},
        {"rules.finalise_rewrite_us", "us"},
        {"cost.simulator_us_p50", "us"},
        {"cost.cost_model_us_p50", "us"},
        {"optimizers.taso.search_ms", "ms"},
        {"optimizers.pet.search_ms", "ms"},
        {"optimizers.tensat.search_ms", "ms"},
        {"optimizers.tensat.unverified", "count"},
        {"serve.execute_ms_p50", "ms"},
        {"serve.overhead_ms_p50", "ms"},
        {"serve.hit_ms_p50", "ms"},
        {"serve.memo_hit_frac", "ratio"},
        {"serve.coalesced_frac", "ratio"},
        {"serve.peak_queue_depth", "count"},
        {"net.frames_received", "count"},
        {"net.protocol_errors", "count"},
        {"net.result_codec_us", "us"},
        {"trace.op_ms_p50", "ms"},
    };
    for (const auto& [name, unit] : all)
        if (report.layers.find(name) == report.layers.end()) report.layers[name] = {0.0, unit};
    for (const char* layer : layer_names) {
        const std::string name = std::string("trace.self_ms.") + layer;
        if (report.layers.find(name) == report.layers.end()) report.layers[name] = {0.0, "ms"};
    }
}

} // namespace perfbench
