// train_inception: Xrlflow::train on smoke InceptionV3 (309 nodes), one PPO
// update window per repetition, then one greedy optimise. The PPO update
// dominates; serving and search do no work.
//
// --seed picks the model's input shape (image side). Every repetition
// trains a fresh policy from the same fixed seed, so repetitions and runs
// do the same training work, and every repetition must end with the same
// parameter bytes (training determinism).
//
// Untraced runs call Xrlflow::train. Traced runs drive the same window
// through its public pieces, Trainer::run_episode per episode and then
// Trainer::train(0), which runs exactly the PPO update on the recorded
// buffer, so rollout and update are timed apart. The traced run then
// trains the first window again through Xrlflow::train and requires
// bit-identical parameters (training-split parity).
#include <memory>

#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "models/models.h"
#include "rules/corpus.h"
#include "workloads.h"

namespace perfbench {

using namespace xrl;

namespace {

constexpr std::uint64_t salt = 0x7a11;
constexpr int window = 1; ///< Episodes per PPO update window.
constexpr std::uint64_t training_seed = 7;
const std::int64_t image_sides[] = {192, 208, 224, 240, 256, 272, 288, 299};

struct Window_time {
    double rollout_s = 0.0;
    double update_s = 0.0;
    int transitions = 0;
    int noop_endings = 0;
};

/// One window through Trainer's public pieces, set up exactly as
/// Xrlflow::train sets up its first call (same simulator seed, environment
/// config and trainer seed).
Window_time split_window(const Rule_set& rules, const Graph& model, std::uint64_t seed,
                         std::string& parameters, Report& report)
{
    const Xrlflow_config config = smoke_config(seed, window);
    Agent agent(config.agent, config.seed);
    E2e_simulator simulator(config.device, seed ^ 0xabcdULL);
    Env_config env_config = config.env;
    env_config.max_candidates = config.agent.max_candidates;
    Environment env(model, rules, simulator, env_config);
    Trainer_config trainer_config = config.trainer;
    trainer_config.seed = seed;
    Trainer trainer(agent, env, trainer_config);

    Window_time time;
    for (int episode = 0; episode < window; ++episode) {
        const Span_scope span("bench/run_episode");
        const auto start = Clock::now();
        const Episode_stats stats = trainer.run_episode(/*greedy=*/false, /*record=*/true);
        time.rollout_s += seconds_since(start);
        time.transitions += stats.steps;
        time.noop_endings += stats.ended_with_noop ? 1 : 0;
    }
    {
        const Span_scope span("bench/ppo_update");
        const auto start = Clock::now();
        trainer.train(0);
        time.update_s = seconds_since(start);
    }
    add_environment_layers(report, env, window, time.transitions, time.noop_endings);
    parameters = parameter_bytes(agent);
    return time;
}

} // namespace

Report run_train_inception(const Options& options)
{
    Report report;
    const std::int64_t image_side = image_sides[options.seed % std::size(image_sides)];
    // Set-up (rule corpus and model) takes well under a millisecond, so one
    // burst of repetitions samples a single instant of the host. It is
    // repeated before the first window and again before every later one,
    // and setup_s is the median over the whole run.
    std::vector<double> setup_times;
    const auto time_setups = [&](Rule_set& rules_out, Graph& model_out) {
        for (int i = 0; i < 9; ++i) {
            const auto setup_start = Clock::now();
            rules_out = standard_rule_corpus();
            model_out = make_inception_v3(Scale::smoke, image_side);
            setup_times.push_back(seconds_since(setup_start));
        }
    };
    Rule_set rules;
    Graph model;
    time_setups(rules, model);
    const E2e_simulator judge(gtx1080_profile(), 0);

    std::vector<double> op_ms;   // per transition: its window's wall / transitions
    std::vector<double> train_s; // per window
    double total_s = 0.0;
    double rollout_s = 0.0;
    double update_s = 0.0;
    long transitions = 0;
    std::unique_ptr<Xrlflow> first;
    std::string first_parameters;
    const auto check_determinism = [&](std::string parameters) {
        if (first_parameters.empty())
            first_parameters = std::move(parameters);
        else if (parameters != first_parameters)
            report.problem("training determinism: a repetition trained different parameters");
    };

    const Phase_totals before = phase_totals();
    const auto start = Clock::now();
    for (std::uint64_t rep = 0; rep == 0 || seconds_since(start) < options.seconds; ++rep) {
        if (rep > 0) {
            Rule_set scratch_rules;
            Graph scratch_model;
            time_setups(scratch_rules, scratch_model);
        }
        ++report.attempted;
        try {
            double seconds = 0.0;
            int steps = 0;
            const Trace_scope trace(options.trace ? new_trace_id() : 0, 0);
            if (options.trace) {
                std::string parameters;
                const Window_time time =
                    split_window(rules, model, training_seed, parameters, report);
                seconds = time.rollout_s + time.update_s;
                steps = time.transitions;
                rollout_s += time.rollout_s;
                update_s += time.update_s;
                check_determinism(std::move(parameters));
            } else {
                auto system =
                    std::make_unique<Xrlflow>(rules, smoke_config(training_seed, window));
                const auto train_start = Clock::now();
                system->train(model, window);
                seconds = seconds_since(train_start);
                for (const Episode_stats& episode : system->training_history())
                    steps += episode.steps;
                check_determinism(parameter_bytes(system->agent()));
                if (rep == 0) first = std::move(system);
            }
            train_s.push_back(seconds);
            total_s += seconds;
            transitions += steps;
            op_ms.insert(op_ms.end(), static_cast<std::size_t>(steps), seconds * 1e3 / steps);
        } catch (const std::exception& e) {
            ++report.failed;
            report.problem(std::string("training window threw: ") + e.what());
        }
    }
    const Phase_totals training = phase_totals() - before;

    if (options.trace) {
        // Training-split parity: Xrlflow::train on the same seed must
        // reproduce the split drive's parameters byte for byte. Untraced,
        // so the layer self times cover the split drive only.
        set_trace_enabled(false);
        first = std::make_unique<Xrlflow>(rules, smoke_config(training_seed, window));
        first->train(model, window);
        set_trace_enabled(true);
        const bool parity = parameter_bytes(first->agent()) == first_parameters;
        report.note("training-split parity", parity ? 1.0 : 0.0, "bool");
        if (!parity) report.problem("training-split parity: Xrlflow::train parameters differ");
    }

    if (first == nullptr) {
        report.problem("the first training window failed; nothing to optimise");
        return report;
    }

    // One greedy optimise with the first window's policy.
    ++report.attempted;
    Optimisation_outcome outcome;
    double optimise_s = 0.0;
    const Phase_totals before_optimise = phase_totals();
    {
        const Trace_scope trace(options.trace ? new_trace_id() : 0, 0);
        const Span_scope span("bench/optimise");
        Inference_options inference;
        inference.deterministic_only = true;
        const auto optimise_start = Clock::now();
        outcome = first->optimise(model, inference);
        optimise_s = seconds_since(optimise_start);
    }
    const Phase_totals optimising = phase_totals() - before_optimise;

    // Correctness, outside the timed region.
    const double speedup = judge.noiseless_ms(model) / judge.noiseless_ms(outcome.best_graph);
    Verifier verifier(derive_seed(options.seed, salt, 0));
    const double error = verifier.error(model, outcome.best_graph);
    report.note("executor relative error", error, "ratio");
    if (!(error <= executor_tolerance)) {
        ++report.failed;
        report.problem("greedy result fails the executor check");
    }
    Digest digest;
    digest.add(first_parameters);
    digest.add(outcome.best_graph.model_hash());
    digest.add(outcome.final_ms);
    report.digest = digest.hex();

    const Tail op_tail = tail(op_ms);
    report.end_to_end["setup_s"] = {median(setup_times), "s"};
    report.end_to_end["op_ms_p50"] = {median(op_ms), "ms"};
    report.end_to_end["op_ms_tail"] = {op_tail.value, "ms"};
    report.end_to_end["ops_per_s"] = {total_s > 0.0 ? transitions / total_s : 0.0, "1/s"};
    report.end_to_end["speedup_geomean"] = {speedup, "x"};
    report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

    report.op = "one training transition, amortising its window";
    report.note("train_s (p50 per window)", median(train_s), "s");
    report.note("windows", static_cast<double>(train_s.size()), "count");
    report.note("transitions", static_cast<double>(transitions), "count");
    report.note("op_ms_tail percentile", op_tail.percentile, "%");
    report.note("op_ms_tail samples", static_cast<double>(op_tail.samples), "count");
    report.note("optimise_ms (greedy)", optimise_s * 1e3, "ms");

    if (options.trace) {
        report.layers["core.trainer.rollout_s"] = {rollout_s, "s"};
        report.layers["core.trainer.ppo_update_s"] = {update_s, "s"};
        report.layers["core.trainer.ppo_update_share"] = {
            rollout_s + update_s > 0.0 ? update_s / (rollout_s + update_s) : 0.0, "ratio"};
        const int epochs = smoke_config(training_seed, window).trainer.ppo.epochs;
        report.layers["core.trainer.update_us_per_sample"] = {
            transitions > 0 ? update_s * 1e6 / static_cast<double>(transitions * epochs) : 0.0,
            "us"};
        report.layers["core.trainer.transitions"] = {static_cast<double>(transitions), "count"};
        add_phase_layers(report, training + optimising);
        const double inner_us = phase(optimising, "rollout/gnn_encode").sum_us +
                                phase(optimising, "rollout/gnn_inference").sum_us +
                                phase(optimising, "rollout/env_step").sum_us;
        report.layers["core.xrlflow.other_us"] = {optimise_s * 1e6 - inner_us, "us"};
        add_cost_layers(report, {&model, &outcome.best_graph}, judge.device());
        report.layers["trace.op_ms_p50"] = {median(op_ms), "ms"};
        add_trace_layers(report, options.trace_dir + "/train_inception-" +
                                     std::to_string(options.seed) + ".json");
    }
    return report;
}

} // namespace perfbench
