// The unified optimiser API: registry lookup, parity of the unified
// Optimize_result with the legacy per-backend structs, cancellation via the
// progress callback, and memoisation in Optimization_service.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

#include "core/optimization_service.h"
#include "core/optimizer_api.h"
#include "core/xrlflow.h"
#include "ir/builder.h"
#include "models/models.h"
#include "optimizers/pet/pet_optimizer.h"
#include "optimizers/taso/taso_optimizer.h"
#include "optimizers/tensat/tensat_optimizer.h"
#include "rules/bespoke_rules.h"
#include "rules/corpus.h"
#include "support/check.h"
#include "optimizer_test_util.h"

namespace xrl {
namespace {

using test::api_context;

/// The quickstart graph (paper Figure 1): y = relu(x.w + b).
Graph quickstart_graph()
{
    Graph_builder b;
    const Edge x = b.input({4, 32}, "x");
    const Edge w = b.weight({32, 16}, "w");
    const Edge bias = b.weight({16}, "b");
    return b.finish({b.relu(b.add(b.matmul(x, w), bias))});
}

/// A slightly richer graph so searches take more than one step.
Graph projection_graph()
{
    Graph_builder b;
    const Edge x = b.input({8, 32}, "x");
    const Edge wq = b.weight({32, 16});
    const Edge wk = b.weight({32, 16});
    const Edge y = b.add(b.relu(b.matmul(x, wq)), b.relu(b.matmul(x, wk)));
    return b.finish({y});
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(OptimizerRegistry, BuiltInServesAllFourBackends)
{
    const std::vector<std::string> expected = {"pet", "taso", "tensat", "xrlflow"};
    EXPECT_EQ(Optimizer_registry::built_in().names(), expected);
    for (const std::string& name : expected)
        EXPECT_TRUE(Optimizer_registry::built_in().contains(name));
    EXPECT_FALSE(Optimizer_registry::built_in().contains("simulated-annealing"));
}

TEST(OptimizerRegistry, UnknownBackendThrowsWithKnownNames)
{
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    try {
        make_optimizer("nope", api_context(rules));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("taso"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    }
}

TEST(OptimizerRegistry, IncompleteContextViolatesContract)
{
    EXPECT_THROW(make_optimizer("taso", Optimizer_context{}), Contract_violation);
}

TEST(OptimizerRegistry, DuplicateRegistrationViolatesContract)
{
    Optimizer_registry registry;
    register_taso_backend(registry);
    EXPECT_THROW(register_taso_backend(registry), Contract_violation);
}

TEST(OptimizerRegistry, EveryBackendReturnsPopulatedResult)
{
    const Graph g = quickstart_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    // Tiny budgets: this exercises plumbing, not search quality.
    const Optimizer_context context = api_context(
        rules,
        {{"taso.budget", 10}, {"pet.budget", 10}, {"tensat.max_iterations", 2},
         {"xrlflow.episodes", 1}, {"xrlflow.max_steps", 6}});
    for (const std::string& name : Optimizer_registry::built_in().names()) {
        const auto optimizer = make_optimizer(name, context);
        EXPECT_EQ(optimizer->name(), name);
        const Optimize_result result = optimizer->optimize(g, {});
        EXPECT_EQ(result.backend, name) << name;
        EXPECT_GT(result.initial_ms, 0.0) << name;
        EXPECT_GT(result.final_ms, 0.0) << name;
        EXPECT_LE(result.final_ms, result.initial_ms + 1e-12) << name;
        EXPECT_GT(result.best_graph.size(), 0u) << name;
        EXPECT_GE(result.wall_seconds, 0.0) << name;
        EXPECT_FALSE(result.cancelled) << name;
        EXPECT_NO_THROW(result.best_graph.validate()) << name;
    }
}

// ---------------------------------------------------------------------------
// Parity with the legacy per-backend entry points
// ---------------------------------------------------------------------------

TEST(OptimizerParity, TasoAdapterMatchesLegacyResult)
{
    const Graph g = quickstart_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 20;
    const Taso_result legacy = optimise_taso(g, rules, cost, config);

    const auto taso = make_optimizer("taso", api_context(rules, {{"taso.budget", 20}}));
    const Optimize_result unified = taso->optimize(g, {});

    EXPECT_EQ(unified.initial_ms, legacy.initial_cost_ms);
    EXPECT_EQ(unified.final_ms, legacy.best_cost_ms);
    EXPECT_EQ(unified.steps, legacy.iterations);
    EXPECT_EQ(unified.best_graph.canonical_hash(), legacy.best_graph.canonical_hash());
    EXPECT_EQ(unified.metadata.at("candidates_generated"), legacy.candidates_generated);
}

TEST(OptimizerParity, PetAdapterMatchesLegacyResult)
{
    const Graph g = projection_graph();
    const Cost_model cost(gtx1080_profile());
    Taso_config config;
    config.budget = 10;
    const Pet_result legacy = optimise_pet(g, cost, config);

    const Rule_set rules = standard_rule_corpus();
    const auto pet = make_optimizer("pet", api_context(rules, {{"pet.budget", 10}}));
    const Optimize_result unified = pet->optimize(g, {});

    EXPECT_EQ(unified.final_ms, legacy.honest_cost_ms);
    EXPECT_EQ(unified.metadata.at("pet_believed_ms"), legacy.pet_cost_ms);
    EXPECT_EQ(unified.steps, legacy.iterations);
    EXPECT_EQ(unified.best_graph.canonical_hash(), legacy.best_graph.canonical_hash());
}

TEST(OptimizerParity, TensatAdapterMatchesLegacyResult)
{
    const Graph g = projection_graph();
    const Cost_model cost(gtx1080_profile());
    // Replicate the adapter's setup with the legacy entry point.
    Rule_set multi;
    multi.push_back(make_merge_matmul_shared_lhs_rule());
    multi.push_back(make_merge_conv_shared_input_rule());
    Tensat_config config;
    config.max_iterations = 3;
    const Tensat_result legacy = optimise_tensat(g, curated_patterns(), multi, cost, config);

    const Rule_set rules = standard_rule_corpus();
    const auto tensat =
        make_optimizer("tensat", api_context(rules, {{"tensat.max_iterations", 3}}));
    const Optimize_result unified = tensat->optimize(g, {});

    EXPECT_EQ(unified.initial_ms, legacy.initial_cost_ms);
    EXPECT_EQ(unified.final_ms, legacy.best_cost_ms);
    EXPECT_EQ(unified.best_graph.canonical_hash(), legacy.best_graph.canonical_hash());
    EXPECT_EQ(unified.metadata.at("egraph_nodes"), static_cast<double>(legacy.egraph_nodes));
    EXPECT_EQ(unified.metadata.at("saturated") > 0.0, legacy.saturated);
}

TEST(OptimizerParity, XrlflowAdapterMatchesLegacyGreedyRollout)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());

    // Legacy path: an untrained policy run greedily, with the exact
    // configuration the adapter documents as its smoke default.
    Xrlflow_config config;
    config.seed = 11;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = 40;
    config.trainer.update_every_episodes = 4;
    config.trainer.ppo.minibatch_size = 8;
    config.trainer.seed = 11;
    Xrlflow legacy_system(rules, config);
    const Optimisation_outcome legacy = legacy_system.optimise(g);

    const auto xrlflow =
        make_optimizer("xrlflow", api_context(rules, {{"xrlflow.episodes", 0}}));
    Optimize_request request;
    request.seed = 11;
    request.deterministic = true;
    const Optimize_result unified = xrlflow->optimize(g, request);

    EXPECT_EQ(unified.initial_ms, legacy.initial_ms);
    EXPECT_EQ(unified.final_ms, legacy.final_ms);
    EXPECT_EQ(unified.steps, legacy.steps);
    EXPECT_EQ(unified.best_graph.canonical_hash(), legacy.best_graph.canonical_hash());
}

// ---------------------------------------------------------------------------
// Golden results: every backend's search trajectory, pinned bit for bit
// ---------------------------------------------------------------------------

/// The fields of a search result that fix its trajectory: the best graph,
/// its latency bits, the iteration count and the per-rule counts.
struct Golden_result {
    std::uint64_t best_hash = 0;
    std::uint64_t final_ms_bits = 0;
    int steps = 0;
    std::map<std::string, int> rule_counts;

    bool operator==(const Golden_result&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden_result& golden)
{
    char head[96];
    std::snprintf(head, sizeof head, "{0x%016llxULL, 0x%016llxULL, %d, {",
                  static_cast<unsigned long long>(golden.best_hash),
                  static_cast<unsigned long long>(golden.final_ms_bits), golden.steps);
    os << head;
    const char* separator = "";
    for (const auto& [name, count] : golden.rule_counts) {
        os << separator << "{\"" << name << "\", " << count << "}";
        separator = ", ";
    }
    return os << "}}";
}

Golden_result golden_of(const Optimize_result& result)
{
    return {result.best_graph.canonical_hash(), std::bit_cast<std::uint64_t>(result.final_ms),
            result.steps, result.rule_counts};
}

Golden_result run_backend(const std::string& backend, const Graph& model)
{
    const Rule_set rules = standard_rule_corpus();
    const auto optimizer = make_optimizer(
        backend, api_context(rules, {{"taso.budget", 25}, {"pet.budget", 25},
                                     {"tensat.max_iterations", 3}}));
    return golden_of(optimizer->optimize(model, {}));
}

TEST(GoldenResults, TasoOnSmokeBert)
{
    const Golden_result expected{
        0x0bfa15e46ef2194bULL, 0x3fdad83db6d0efd3ULL, 25,
        {{"fold-embedding-projection", 25}, {"fuse-matmul-gelu", 6}, {"matmul-assoc-left", 21},
         {"matmul-assoc-right", 63}, {"merge-matmul-shared-lhs", 54}, {"scale-into-matmul", 75},
         {"transpose-of-matmul", 15}}};
    EXPECT_EQ(run_backend("taso", make_bert(Scale::smoke, 32)), expected);
}

TEST(GoldenResults, TasoOnSmokeInception)
{
    const Golden_result expected{
        0xa54e771e9eed337aULL, 0x3ff1aedb0aeeb6f9ULL, 25,
        {{"fold-batch-norm-into-conv", 709}, {"fuse-conv-relu", 10},
         {"merge-conv-shared-input", 91}, {"pool-relu-commute", 11}, {"relu-pool-commute", 35}}};
    EXPECT_EQ(run_backend("taso", make_inception_v3(Scale::smoke)), expected);
}

TEST(GoldenResults, PetOnSmokeBert)
{
    const Golden_result expected{
        0x1a3bc2ea217442f2ULL, 0x3fdc6f7e9925b7acULL, 25,
        {{"fold-embedding-projection", 25}, {"fuse-matmul-gelu", 75}, {"matmul-assoc-left", 38},
         {"matmul-assoc-right", 94}, {"merge-matmul-shared-lhs", 133}, {"scale-into-matmul", 59},
         {"transpose-of-matmul", 46}}};
    EXPECT_EQ(run_backend("pet", make_bert(Scale::smoke, 32)), expected);
}

TEST(GoldenResults, PetOnSmokeInception)
{
    const Golden_result expected{
        0x477c37348148963aULL, 0x4002c5f9d3cd3b92ULL, 25,
        {{"fold-batch-norm-into-conv", 550}, {"fuse-conv-relu", 100},
         {"merge-conv-shared-input", 225}, {"pet-spatial-split", 850}, {"pool-relu-commute", 50}}};
    EXPECT_EQ(run_backend("pet", make_inception_v3(Scale::smoke)), expected);
}

TEST(GoldenResults, TensatOnSmokeBert)
{
    const Golden_result expected{
        0xbe42640c014adc04ULL, 0x3fdadcbaafd343abULL, 3,
        {{"fuse-matmul-gelu", 3}, {"matmul-assoc-left", 7}, {"matmul-assoc-right", 15},
         {"scale-into-matmul", 13}, {"transpose-of-matmul", 2}}};
    EXPECT_EQ(run_backend("tensat", make_bert(Scale::smoke, 32)), expected);
}

TEST(GoldenResults, TensatOnSmokeInception)
{
    const Golden_result expected{
        0xa161525f5b6f8936ULL, 0x3ff1b68856f0c1d0ULL, 2,
        {{"fuse-conv-relu", 4}, {"pool-relu-commute", 2}}};
    EXPECT_EQ(run_backend("tensat", make_inception_v3(Scale::smoke)), expected);
}

TEST(GoldenResults, SeededGreedyXrlflowOnSmokeBert)
{
    // An untrained policy from a fixed seed, run greedily: the environment
    // path of candidate generation (capped, pooled, index patched per step).
    const Rule_set rules = standard_rule_corpus();
    Xrlflow_config config;
    config.seed = 8;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = 12;
    config.trainer.seed = config.seed;
    Xrlflow system(rules, config);
    const Optimisation_outcome outcome = system.optimise(make_bert(Scale::smoke, 32));

    Golden_result result{outcome.best_graph.canonical_hash(),
                         std::bit_cast<std::uint64_t>(outcome.final_ms), outcome.steps, {}};
    for (std::size_t i = 0; i < outcome.rule_counts.size(); ++i)
        if (outcome.rule_counts[i] > 0)
            result.rule_counts[rules[i]->name()] = outcome.rule_counts[i];
    const Golden_result expected{
        0x8f8f861bd681f108ULL, 0x3fe1a0a2c8419b14ULL, 12,
        {{"fold-embedding-projection", 1}, {"matmul-assoc-left", 1}, {"matmul-assoc-right", 3},
         {"merge-matmul-shared-lhs", 3}, {"scale-into-matmul", 2}, {"transpose-of-matmul", 2}}};
    EXPECT_EQ(result, expected);
}

// ---------------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------------

TEST(OptimizeRequest, ProgressCallbackCancelsSearch)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto taso = make_optimizer("taso", api_context(rules));

    int calls = 0;
    Optimize_request request;
    request.on_progress = [&calls](const Optimize_progress& progress) {
        EXPECT_EQ(progress.backend, "taso");
        ++calls;
        return calls < 2; // cancel at the second heartbeat
    };
    const Optimize_result result = taso->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(calls, 2);
    EXPECT_LE(result.steps, 2);
    // Best-so-far is still a usable graph.
    EXPECT_NO_THROW(result.best_graph.validate());
    EXPECT_GT(result.final_ms, 0.0);
}

TEST(OptimizeRequest, TimeBudgetStopsSearch)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto taso = make_optimizer("taso", api_context(rules, {{"taso.budget", 100000}}));
    Optimize_request request;
    request.time_budget_seconds = 1e-9; // expires before the first pop
    const Optimize_result result = taso->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.steps, 0);
    EXPECT_EQ(result.best_graph.canonical_hash(), g.canonical_hash());
}

TEST(OptimizeRequest, CancellationReachesXrlflowInference)
{
    const Graph g = projection_graph();
    const Rule_set rules = standard_rule_corpus();
    const Cost_model cost(gtx1080_profile());
    const auto xrlflow =
        make_optimizer("xrlflow", api_context(rules, {{"xrlflow.episodes", 0}}));
    Optimize_request request;
    request.on_progress = [](const Optimize_progress&) { return false; };
    const Optimize_result result = xrlflow->optimize(g, request);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.steps, 0);
}

// ---------------------------------------------------------------------------
// Optimization_service
// ---------------------------------------------------------------------------

TEST(OptimizationService, ListsRegistryBackends)
{
    Optimization_service service;
    const std::vector<std::string> expected = {"pet", "taso", "tensat", "xrlflow"};
    EXPECT_EQ(service.backends(), expected);
}

TEST(OptimizationService, RepeatedOptimizeIsServedFromCache)
{
    Service_config config;
    config.backend_options["taso.budget"] = 15;
    Optimization_service service(config);
    const Graph g = quickstart_graph();

    const Optimize_result first = service.optimize("taso", g);
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(service.cache_hits(), 0u);
    EXPECT_EQ(service.cache_misses(), 1u);

    const Optimize_result second = service.optimize("taso", g);
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(service.cache_hits(), 1u);
    EXPECT_EQ(second.final_ms, first.final_ms);
    EXPECT_EQ(second.best_graph.canonical_hash(), first.best_graph.canonical_hash());

    // A different request fingerprint misses.
    Optimize_request other;
    other.iteration_budget = 3;
    EXPECT_FALSE(service.optimize("taso", g, other).from_cache);
    EXPECT_EQ(service.cache_misses(), 2u);

    service.clear_cache();
    EXPECT_EQ(service.cache_size(), 0u);
    EXPECT_FALSE(service.optimize("taso", g).from_cache);
}

TEST(OptimizationService, CancelledRunsAreNotCached)
{
    Optimization_service service;
    const Graph g = projection_graph();
    Optimize_request cancel_all;
    cancel_all.on_progress = [](const Optimize_progress&) { return false; };
    const Optimize_result cancelled = service.optimize("taso", g, cancel_all);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(service.cache_size(), 0u);
    // The follow-up full run is a miss, not a poisoned hit.
    const Optimize_result full = service.optimize("taso", g, {});
    EXPECT_FALSE(full.from_cache);
    EXPECT_FALSE(full.cancelled);
}

TEST(OptimizationService, UnknownBackendThrowsAndLeavesServiceUsable)
{
    Optimization_service service;
    const Graph g = quickstart_graph();
    EXPECT_THROW(service.optimize("nope", g), std::invalid_argument);
    EXPECT_NO_THROW(service.optimize("taso", g));
}

TEST(OptimizationService, OptimizeAllComparesEveryBackend)
{
    Service_config config;
    config.backend_options["taso.budget"] = 8;
    config.backend_options["pet.budget"] = 8;
    config.backend_options["tensat.max_iterations"] = 2;
    config.backend_options["xrlflow.episodes"] = 0;
    config.backend_options["xrlflow.max_steps"] = 6;
    Optimization_service service(config);

    const Graph g = quickstart_graph();
    const std::vector<Backend_run> runs = service.optimize_all(g, {}, 3);
    ASSERT_EQ(runs.size(), 4u);
    for (const Backend_run& run : runs) {
        EXPECT_EQ(run.result.backend, run.backend);
        EXPECT_GT(run.e2e_before.mean_ms, 0.0) << run.backend;
        EXPECT_GT(run.e2e_after.mean_ms, 0.0) << run.backend;
        EXPECT_EQ(run.e2e_before.repeats, 3) << run.backend;
    }
}

} // namespace
} // namespace xrl
