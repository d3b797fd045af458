// infer_bert: many Xrlflow::optimise calls on smoke BERT with the smoke
// configuration (6 roll-outs, the first greedy), each call with its own
// seed drawn from --seed. The policy is trained for one PPO update window
// during set-up, from a fixed seed: it is part of the system under test,
// so every run optimises with the same policy and only the calls differ.
// Agent::act, the taped GNN forward, dominates; the PPO update does no
// work in the timed region.
#include <memory>
#include <optional>
#include <set>

#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "gnn/encoding.h"
#include "models/models.h"
#include "rules/corpus.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace xrl;

namespace {

constexpr std::uint64_t salt = 0xbe47;
constexpr int training_episodes = 4; ///< One smoke-scale PPO update window.
constexpr int digest_calls = 3;      ///< Calls every run completes; they form the digest.
constexpr std::uint64_t policy_seed = 7;

/// One greedy episode of the trained policy in an Environment the benchmark
/// owns, for the candidate-set statistics Xrlflow::optimise keeps private.
void drive_own_environment(Report& report, Xrlflow& system, const Rule_set& rules,
                           const Graph& model, const Xrlflow_config& config)
{
    E2e_simulator simulator(config.device, 1);
    Env_config env_config = config.env;
    env_config.max_candidates = config.agent.max_candidates;
    Environment env(model, rules, simulator, env_config);
    Meta_encoder encoder;
    Rng rng(1);
    std::vector<const Graph*> candidates;
    int steps = 0;
    bool noop = false;
    while (!env.done()) {
        candidates.clear();
        for (const Candidate& c : env.candidates()) candidates.push_back(c.graph);
        const Encoded_graph& state = encoder.encode(env.current_graph(), candidates);
        const Agent::Decision decision = system.agent().act(state, env.action_mask(), rng, true);
        noop = decision.action == env.noop_action();
        env.step(decision.action);
        ++steps;
    }
    add_environment_layers(report, env, 1, steps, noop ? 1 : 0);
}

} // namespace

Report run_infer_bert(const Options& options)
{
    Report report;
    std::optional<Rule_set> rules;
    Graph model;
    std::unique_ptr<Xrlflow> system;
    const Xrlflow_config config = smoke_config(policy_seed, training_episodes);
    // Set up twice; the second set-up must train bit-identical parameters
    // (same seed => same policy).
    std::string parameters;
    const double setup_s = median_setup_seconds(2, [&](int round) {
        rules.emplace(standard_rule_corpus());
        model = make_bert(Scale::smoke);
        system = std::make_unique<Xrlflow>(*rules, config);
        system->train(model, training_episodes);
        std::string trained = parameter_bytes(system->agent());
        if (round > 0 && trained != parameters)
            report.problem("training determinism: same seed trained different parameters");
        parameters = std::move(trained);
    });
    const E2e_simulator judge(config.device, 0);
    const double input_ms = judge.noiseless_ms(model);

    std::vector<double> op_ms;       // per environment step, heartbeat to heartbeat
    std::vector<double> optimise_ms; // per call
    std::vector<double> speedups;
    std::vector<Graph> results;      // distinct best graphs, for the executor check
    std::set<std::uint64_t> seen;
    double total_s = 0.0;
    long steps_total = 0;
    Digest digest;

    const Phase_totals before = phase_totals();
    const auto start = Clock::now();
    for (std::uint64_t call = 0;
         call < digest_calls || seconds_since(start) < options.seconds; ++call) {
        ++report.attempted;
        try {
            // The heartbeat runs once before every environment step, so the
            // time between two beats is one step: encode, act, step and
            // scoring. The call's set-up joins its first step and the
            // result copy its last, so the samples sum to the call's wall.
            int steps = 0;
            Clock::time_point mark;
            Inference_options inference;
            inference.seed = derive_seed(options.seed, salt, call + 1);
            inference.heartbeat = [&](int, double) {
                const auto now = Clock::now();
                if (steps++ > 0) {
                    op_ms.push_back(std::chrono::duration<double, std::milli>(now - mark).count());
                    mark = now;
                }
                return true;
            };
            const Trace_scope trace(options.trace ? new_trace_id() : 0, 0);
            const Span_scope span("bench/optimise");
            const auto call_start = Clock::now();
            mark = call_start;
            Optimisation_outcome outcome = system->optimise(model, inference);
            const auto call_end = Clock::now();
            if (steps > 0)
                op_ms.push_back(std::chrono::duration<double, std::milli>(call_end - mark).count());
            const double seconds = std::chrono::duration<double>(call_end - call_start).count();
            total_s += seconds;
            steps_total += steps;
            optimise_ms.push_back(seconds * 1e3);
            speedups.push_back(input_ms / judge.noiseless_ms(outcome.best_graph));
            if (call < digest_calls) {
                digest.add(outcome.best_graph.model_hash());
                digest.add(outcome.final_ms);
            }
            if (seen.insert(outcome.best_graph.model_hash()).second)
                results.push_back(std::move(outcome.best_graph));
        } catch (const std::exception& e) {
            ++report.failed;
            report.problem(std::string("optimise threw: ") + e.what());
        }
    }
    const Phase_totals region = phase_totals() - before;

    // Correctness, outside the timed region.
    Verifier verifier(derive_seed(options.seed, salt, 1u << 20));
    double worst = 0.0;
    for (const Graph& result : results) {
        const double error = verifier.error(model, result);
        worst = std::max(worst, error);
        if (!(error <= executor_tolerance)) {
            ++report.failed;
            report.problem("an optimise result fails the executor check");
        }
    }
    digest.add(parameters);
    report.digest = digest.hex();

    const Tail op_tail = tail(op_ms);
    const Tail call_tail = tail(optimise_ms);
    report.end_to_end["setup_s"] = {setup_s, "s"};
    report.end_to_end["op_ms_p50"] = {median(op_ms), "ms"};
    report.end_to_end["op_ms_tail"] = {op_tail.value, "ms"};
    report.end_to_end["ops_per_s"] = {total_s > 0.0 ? steps_total / total_s : 0.0, "1/s"};
    report.end_to_end["speedup_geomean"] = {geomean(speedups), "x"};
    report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

    report.op = "one inference step of Xrlflow::optimise";
    report.note("optimise_ms_p50", median(optimise_ms), "ms");
    report.note("optimise_ms_tail", call_tail.value, "ms");
    report.note("optimise_ms_tail percentile", call_tail.percentile, "%");
    report.note("op_ms_tail percentile", op_tail.percentile, "%");
    report.note("op_ms_tail samples", static_cast<double>(op_tail.samples), "count");
    report.note("optimise calls", static_cast<double>(optimise_ms.size()), "count");
    report.note("distinct results verified", static_cast<double>(results.size()), "count");
    report.note("executor relative error (max)", worst, "ratio");

    if (options.trace) {
        add_phase_layers(report, region);
        const double inner_us = phase(region, "rollout/gnn_encode").sum_us +
                                phase(region, "rollout/gnn_inference").sum_us +
                                phase(region, "rollout/env_step").sum_us;
        report.layers["core.xrlflow.other_us"] = {total_s * 1e6 - inner_us, "us"};
        drive_own_environment(report, *system, *rules, model, config);
        std::vector<const Graph*> graphs = {&model};
        for (const Graph& result : results) graphs.push_back(&result);
        add_cost_layers(report, graphs, judge.device());
        report.layers["trace.op_ms_p50"] = {median(op_ms), "ms"};
        add_trace_layers(report, options.trace_dir + "/infer_bert-" +
                                     std::to_string(options.seed) + ".json");
    }
    return report;
}

} // namespace perfbench
