// serve_mix: a closed loop of 3 Clients, each waiting for its reply before
// sending the next request, over loopback to an in-process Daemon with two
// shards (gtx1080-sim and a100-sim, 2 workers each). The stream is a
// seeded shuffle of zoo models with input-shape variants x {taso, pet,
// tensat} x 2 devices x 12 request seeds; one request in five repeats one
// of the previous 64, so memo hits and coalescing share the run with
// fresh searches. Exercises rules, cost, optimizers, serve and net; gnn
// and nn do no work.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "core/result_serial.h"
#include "cost/e2e_simulator.h"
#include "models/models.h"
#include "net/client.h"
#include "net/daemon.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace xrl;

namespace {

constexpr std::uint64_t salt = 0x5e4e;
constexpr int clients = 3;
constexpr std::size_t digest_requests = 30; ///< Stream prefix every run completes.
constexpr std::uint64_t request_seeds = 12;
constexpr double repeat_share = 0.2;
constexpr std::size_t repeat_window = 64;

const char* const backends[] = {"taso", "pet", "tensat"};
const char* const devices[] = {"gtx1080-sim", "a100-sim"};

/// The zoo with input-shape variants. ResNeXt-50 is left out: the
/// reference executor needs 0.2-0.6 s per ResNeXt graph, which would make
/// the correctness pass longer than the run.
std::vector<Graph> zoo_inputs()
{
    std::vector<Graph> inputs;
    const std::vector<std::int64_t> sizes = {8, 12, 16, 20, 24, 28, 32, 40};
    for (const std::int64_t image : sizes) {
        inputs.push_back(make_inception_v3(Scale::smoke, image));
        inputs.push_back(make_squeezenet(Scale::smoke, image));
        inputs.push_back(make_resnet18(Scale::smoke, image));
    }
    for (const std::int64_t sequence : sizes) {
        inputs.push_back(make_bert(Scale::smoke, sequence));
        inputs.push_back(make_dalle(Scale::smoke, sequence));
        inputs.push_back(make_transformer_transducer(Scale::smoke, sequence));
    }
    for (const std::int64_t image : {16, 32, 48, 64})
        inputs.push_back(make_vit(Scale::smoke, image));
    return inputs;
}

struct Request_spec {
    std::size_t input = 0;
    int backend = 0;
    int device = 0;
    std::uint64_t seed = 0;
};

std::vector<Request_spec> make_stream(std::size_t inputs, std::uint64_t seed)
{
    std::vector<Request_spec> fresh;
    for (std::size_t i = 0; i < inputs; ++i)
        for (int b = 0; b < 3; ++b)
            for (int d = 0; d < 2; ++d)
                for (std::uint64_t s = 1; s <= request_seeds; ++s) fresh.push_back({i, b, d, s});
    Rng rng(derive_seed(seed, salt, 0));
    for (std::size_t i = fresh.size(); i > 1; --i)
        std::swap(fresh[i - 1], fresh[rng.uniform_index(i)]);
    std::vector<Request_spec> stream;
    for (const Request_spec& spec : fresh) {
        if (!stream.empty() && rng.uniform() < repeat_share) {
            const std::size_t back = 1 + rng.uniform_index(std::min(stream.size(), repeat_window));
            stream.push_back(stream[stream.size() - back]);
        }
        stream.push_back(spec);
    }
    return stream;
}

Daemon_config fleet_config()
{
    Daemon_config config;
    for (const char* device : devices) {
        Shard_config shard;
        shard.server.service.backend_options = {
            {"taso.budget", 30}, {"pet.budget", 15}, {"tensat.max_iterations", 3}};
        shard.server.workers = 2;
        shard.device_affinity = {device};
        config.router.shards.push_back(shard);
    }
    return config;
}

/// One request as the client saw it. The best graph is kept only for the
/// first request that produced each distinct result and for the codec
/// sample, so the benchmark's own memory stays small next to the
/// program's.
struct Outcome {
    bool done = false;
    bool failed = false;
    double latency_ms = 0.0;
    std::uint64_t result_hash = 0;
    Optimize_result result;
};

constexpr std::size_t codec_samples = 200;

/// A distinct result: input hash, result hash and backend. The backend is
/// part of the key because the executor check binds by node id, and two
/// backends can return one structure under different ids.
using Result_key = std::tuple<std::uint64_t, std::uint64_t, int>;

} // namespace

Report run_serve_mix(const Options& options)
{
    Report report;
    std::vector<Graph> inputs;
    std::vector<std::uint64_t> input_hashes;
    std::vector<Request_spec> stream;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Client>> connections;
    const double setup_s = median_setup_seconds(9, [&](int) {
        connections.clear();
        daemon.reset();
        inputs = zoo_inputs();
        input_hashes.clear();
        for (const Graph& input : inputs) input_hashes.push_back(input.model_hash());
        stream = make_stream(inputs.size(), options.seed);
        daemon = std::make_unique<Daemon>(fleet_config());
        for (int c = 0; c < clients; ++c) {
            Client_config config;
            config.host = daemon->host();
            config.port = daemon->port();
            connections.push_back(std::make_unique<Client>(config));
        }
    });

    std::vector<Outcome> outcomes(stream.size());
    std::mutex kept_mutex;
    std::map<Result_key, Graph> kept;
    std::atomic<std::size_t> next{0};
    const Phase_totals before = phase_totals();
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Client& client = *connections[static_cast<std::size_t>(c)];
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= stream.size() ||
                    (i >= digest_requests && seconds_since(start) >= options.seconds))
                    return;
                const Request_spec& spec = stream[i];
                Optimize_request request;
                request.seed = spec.seed;
                request.device = Target_device(devices[spec.device]);
                Outcome& outcome = outcomes[i];
                const Trace_scope trace(options.trace ? new_trace_id() : 0, 0);
                const Span_scope span("bench/request");
                const auto request_start = Clock::now();
                try {
                    outcome.result =
                        client.optimize(backends[spec.backend], inputs[spec.input], request);
                    outcome.failed = outcome.result.cancelled;
                } catch (const std::exception&) {
                    outcome.failed = true;
                }
                outcome.latency_ms = seconds_since(request_start) * 1e3;
                outcome.done = true;
                if (outcome.failed) continue;
                outcome.result_hash = outcome.result.best_graph.model_hash();
                const std::lock_guard lock(kept_mutex);
                const auto [slot, first] =
                    kept.try_emplace({input_hashes[spec.input], outcome.result_hash, spec.backend});
                if (first) slot->second = outcome.result.best_graph;
                if (i >= codec_samples) outcome.result.best_graph = Graph{};
            }
        });
    for (std::thread& thread : threads) thread.join();
    const double stream_s = seconds_since(start);
    const Phase_totals region = phase_totals() - before;
    const Stats_ok stats = connections.front()->stats();
    const Daemon_wire_stats wire = daemon->stats();

    // Correctness and judging, outside the timed region.
    const E2e_simulator judges[] = {{gtx1080_profile(), 0}, {a100_profile(), 0}};
    std::map<std::pair<std::size_t, int>, double> input_ms;
    std::map<std::pair<std::uint64_t, int>, double> result_ms;
    Verifier verifier(derive_seed(options.seed, salt, 1));
    std::vector<double> latencies;
    std::vector<double> speedups;
    std::vector<double> execute_ms;
    std::vector<double> overhead_ms;
    std::vector<double> hit_ms;
    std::map<std::string, double> search_ms;
    std::uint64_t hits = 0;
    std::uint64_t unverified = 0;
    double worst = 0.0;
    Digest digest;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& outcome = outcomes[i];
        if (!outcome.done) continue;
        ++report.attempted;
        latencies.push_back(outcome.latency_ms);
        if (outcome.failed) {
            ++report.failed;
            continue;
        }
        const Request_spec& spec = stream[i];
        const Graph& input = inputs[spec.input];
        const Optimize_result& result = outcome.result;
        const E2e_simulator& judge = judges[static_cast<std::size_t>(spec.device)];
        const Graph& best = kept.at({input_hashes[spec.input], outcome.result_hash, spec.backend});
        auto [before_slot, new_input] = input_ms.try_emplace({spec.input, spec.device}, 0.0);
        if (new_input) before_slot->second = judge.noiseless_ms(input);
        auto [after_slot, new_result] =
            result_ms.try_emplace({outcome.result_hash, spec.device}, 0.0);
        if (new_result) after_slot->second = judge.noiseless_ms(best);
        speedups.push_back(before_slot->second / after_slot->second);
        if (i < digest_requests) {
            digest.add(outcome.result_hash);
            digest.add(result.final_ms);
        }
        if (result.from_cache) {
            ++hits;
            hit_ms.push_back(outcome.latency_ms);
        } else {
            execute_ms.push_back(result.wall_seconds * 1e3);
            overhead_ms.push_back(outcome.latency_ms - result.wall_seconds * 1e3);
            search_ms[result.backend] += result.wall_seconds * 1e3;
        }
    }
    // Each distinct result once.
    std::set<Result_key> checked;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& outcome = outcomes[i];
        if (!outcome.done || outcome.failed) continue;
        const Result_key key{input_hashes[stream[i].input], outcome.result_hash, stream[i].backend};
        if (!checked.insert(key).second) continue;
        const double error = verifier.error(inputs[stream[i].input], kept.at(key));
        if (error <= executor_tolerance) {
            worst = std::max(worst, error);
        } else if (outcome.result.backend == "tensat") {
            // Tensat's extract_best rebuilds sources with fresh ids and no
            // names, so id-keyed bindings cannot line the graphs up.
            ++unverified;
        } else {
            ++report.failed;
            report.problem(outcome.result.backend + " result fails the executor check");
        }
    }
    report.digest = digest.hex();
    if (report.failed > 0) report.problem("requests failed, were rejected or were cancelled");
    if (wire.protocol_errors != 0) report.problem("the daemon answered protocol errors");

    const Tail request_tail = tail(latencies);
    const auto completed = static_cast<double>(latencies.size());
    report.end_to_end["setup_s"] = {setup_s, "s"};
    report.end_to_end["op_ms_p50"] = {median(latencies), "ms"};
    report.end_to_end["op_ms_tail"] = {request_tail.value, "ms"};
    report.end_to_end["ops_per_s"] = {completed / stream_s, "1/s"};
    report.end_to_end["speedup_geomean"] = {geomean(speedups), "x"};
    report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

    report.op = "one Client::optimize request";
    report.note("request_ms_p50", median(latencies), "ms");
    report.note("request_ms_tail", request_tail.value, "ms");
    report.note("request_ms_tail percentile", request_tail.percentile, "%");
    report.note("request_ms_tail samples", static_cast<double>(request_tail.samples), "count");
    report.note("requests", completed, "count");
    report.note("requests_per_s", completed / stream_s, "1/s");
    report.note("distinct results checked", static_cast<double>(checked.size()), "count");
    report.note("executor relative error (max verified)", worst, "ratio");
    report.note("optimizers.tensat.unverified", static_cast<double>(unverified), "count");

    if (options.trace) {
        add_phase_layers(report, region);
        for (const char* backend : backends)
            report.layers[std::string("optimizers.") + backend + ".search_ms"] = {
                search_ms[backend], "ms"};
        report.layers["optimizers.tensat.unverified"] = {static_cast<double>(unverified), "count"};
        report.layers["serve.execute_ms_p50"] = {median(execute_ms), "ms"};
        report.layers["serve.overhead_ms_p50"] = {median(overhead_ms), "ms"};
        report.layers["serve.hit_ms_p50"] = {median(hit_ms), "ms"};
        report.layers["serve.memo_hit_frac"] = {completed > 0 ? hits / completed : 0.0, "ratio"};
        const Server_stats& total = stats.router.total;
        report.layers["serve.coalesced_frac"] = {
            total.submitted > 0 ? static_cast<double>(total.coalesced) / total.submitted : 0.0,
            "ratio"};
        std::size_t peak = 0;
        for (const Server_stats& shard : stats.router.shards)
            peak = std::max(peak, shard.peak_queue_depth);
        report.layers["serve.peak_queue_depth"] = {static_cast<double>(peak), "count"};
        report.layers["net.frames_received"] = {static_cast<double>(wire.frames_received), "count"};
        report.layers["net.protocol_errors"] = {static_cast<double>(wire.protocol_errors), "count"};

        // Codec and cost timings on the run's own results.
        std::vector<double> codec_us;
        std::vector<const Graph*> graphs;
        const Trace_scope trace(new_trace_id(), 0);
        for (std::size_t i = 0; i < codec_samples && i < outcomes.size(); ++i) {
            if (!outcomes[i].done || outcomes[i].failed) continue;
            const Span_scope span("bench/codec");
            const auto codec_start = Clock::now();
            const Optimize_result decoded = result_from_bytes(result_to_bytes(outcomes[i].result));
            codec_us.push_back(seconds_since(codec_start) * 1e6);
            if (decoded.best_graph.model_hash() != outcomes[i].result.best_graph.model_hash())
                report.problem("result codec round trip changed the graph");
            if (graphs.size() < 40) graphs.push_back(&outcomes[i].result.best_graph);
        }
        report.layers["net.result_codec_us"] = {median(codec_us), "us"};
        add_cost_layers(report, graphs, gtx1080_profile());
        report.layers["trace.op_ms_p50"] = {median(latencies), "ms"};
        add_trace_layers(report, options.trace_dir + "/serve_mix-" +
                                     std::to_string(options.seed) + ".json");
    }
    connections.clear();
    daemon.reset();
    return report;
}

} // namespace perfbench
