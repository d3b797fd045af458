#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "cost/e2e_simulator.h"
#include "env/environment.h"
#include "ir/builder.h"
#include "models/models.h"
#include "rules/candidate_engine.h"
#include "rules/corpus.h"

namespace xrl {
namespace {

/// The legacy candidate set: every rule's apply_all, canonically deduped
/// against the host and against earlier candidates, in rule order — the
/// exact loop the environment ran before the engine existed.
std::vector<std::pair<std::uint64_t, int>> legacy_candidates(const Graph& host,
                                                             const Rule_set& rules,
                                                             std::size_t per_rule_limit)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    std::unordered_set<std::uint64_t> seen;
    seen.insert(host.canonical_hash());
    for (std::size_t rule_index = 0; rule_index < rules.size(); ++rule_index) {
        for (const Graph& candidate : rules[rule_index]->apply_all(host, per_rule_limit)) {
            const std::uint64_t hash = candidate.canonical_hash();
            if (!seen.insert(hash).second) continue;
            out.emplace_back(hash, static_cast<int>(rule_index));
        }
    }
    return out;
}

std::vector<std::pair<std::uint64_t, int>> engine_candidates(const Graph& host,
                                                             const Rule_set& rules,
                                                             std::size_t per_rule_limit,
                                                             std::size_t threads)
{
    Candidate_engine engine(rules, Candidate_engine_config{per_rule_limit, threads});
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const Candidate& c : engine.generate(host).candidates)
        out.emplace_back(c.hash, c.rule_index);
    return out;
}

void expect_parity(const Graph& host, std::size_t per_rule_limit)
{
    const Rule_set rules = standard_rule_corpus();
    const auto legacy = legacy_candidates(host, rules, per_rule_limit);
    const auto engine = engine_candidates(host, rules, per_rule_limit, 1);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(legacy, engine);
}

TEST(Candidate_engine, ParityWithLegacyLoopOnBert)
{
    expect_parity(make_bert(Scale::smoke, 32), 4);
}

TEST(Candidate_engine, ParityWithLegacyLoopOnInception)
{
    expect_parity(make_inception_v3(Scale::smoke), 4);
}

TEST(Candidate_engine, DeterministicAcrossThreadCounts)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    const auto serial = engine_candidates(bert, rules, 8, 1);
    const auto pooled = engine_candidates(bert, rules, 8, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, pooled);
}

TEST(Candidate_engine, MaterialisesNoPatternRecordBeyondTheCap)
{
    // Matching yields lightweight records; graphs are built only up to the
    // cap (one pool slot per kept candidate, plus one working slot that
    // absorbs invalid sites).
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4, 1});
    const std::size_t cap = 3;
    const Candidate_engine::Step& step = engine.generate(bert, cap);
    ASSERT_EQ(step.candidates.size(), cap);
    EXPECT_GT(step.enumerated, cap + 1);
    EXPECT_LE(engine.step_pool_stats().high_water_slots, cap + 1);
    for (const Candidate& c : step.candidates) {
        if (c.delta == nullptr) continue; // bespoke rules build eagerly
        EXPECT_TRUE(c.delta->valid);
    }
}

TEST(Candidate_engine, EveryCandidateCarriesItsCanonicalHash)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4, 1});
    const Candidate_engine::Step& step = engine.generate(bert);
    ASSERT_FALSE(step.candidates.empty());
    for (const Candidate& c : step.candidates) EXPECT_EQ(c.hash, c.graph->canonical_hash());
}

TEST(Candidate_engine, TruncatesAtTheCapWithoutMaterialising)
{
    const Graph bert = make_bert(Scale::smoke, 32);
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{8, 1});
    std::vector<std::pair<std::uint64_t, int>> full;
    for (const Candidate& c : engine.generate(bert).candidates)
        full.emplace_back(c.hash, c.rule_index);
    ASSERT_GT(full.size(), 2u);
    const std::size_t cap = full.size() / 2;
    const auto& capped = engine.generate(bert, cap);
    EXPECT_EQ(capped.candidates.size(), cap);
    EXPECT_GT(capped.truncated, 0u);
    // The capped prefix is exactly the uncapped set's prefix.
    for (std::size_t i = 0; i < cap; ++i) {
        EXPECT_EQ(capped.candidates[i].hash, full[i].first);
        EXPECT_EQ(capped.candidates[i].rule_index, full[i].second);
    }
}

TEST(Candidate_engine, EnvironmentCandidatesMatchLegacyLoop)
{
    // Every step's capped candidate list is the legacy loop's list for the
    // current graph, truncated at the action-space cap.
    const Graph model = make_bert(Scale::smoke, 16);
    const Rule_set rules = standard_rule_corpus();
    E2e_simulator simulator(gtx1080_profile(), 99);

    Env_config config;
    config.per_rule_limit = 4;
    Environment env(model, rules, simulator, config);

    for (int step = 0; step < 3; ++step) {
        auto legacy = legacy_candidates(env.current_graph(), rules, config.per_rule_limit);
        if (legacy.size() > static_cast<std::size_t>(config.max_candidates))
            legacy.resize(static_cast<std::size_t>(config.max_candidates));
        ASSERT_EQ(env.candidates().size(), legacy.size());
        for (std::size_t i = 0; i < env.candidates().size(); ++i) {
            EXPECT_EQ(env.candidates()[i].graph->canonical_hash(), legacy[i].first);
            EXPECT_EQ(env.candidates()[i].rule_index, legacy[i].second);
        }
        if (env.done()) break;
        env.step(0);
    }
}

/// One scripted rollout: deterministic action picks, recording
/// every step's full candidate order as (hash, rule_index) pairs.
std::vector<std::vector<std::pair<std::uint64_t, int>>> scripted_rollout(const Graph& initial,
                                                                         int steps)
{
    const Rule_set rules = standard_rule_corpus();
    Candidate_engine engine(rules, Candidate_engine_config{4, 1});
    std::vector<std::vector<std::pair<std::uint64_t, int>>> trace;

    Graph host = initial;
    const Candidate* via = nullptr;
    Candidate chosen;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int step = 0; step < steps; ++step) {
        const Candidate_engine::Step& generated = engine.generate(host, 32, via);
        auto& row = trace.emplace_back();
        row.reserve(generated.candidates.size());
        for (const Candidate& c : generated.candidates)
            row.emplace_back(c.hash, c.rule_index);
        if (generated.candidates.empty()) break;
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        chosen = generated.candidates[(lcg >> 33) % generated.candidates.size()];
        host = *chosen.graph;
        via = &chosen;
    }
    return trace;
}

TEST(Candidate_engine, SameRolloutTwiceYieldsIdenticalCandidateOrder)
{
    // Candidate ordering must not depend on anything run-varying (pointer
    // values, hash-set iteration, pool-slot identity): two identical
    // rollouts in one process see identical candidate lists at every step.
    const Graph bert = make_bert(Scale::smoke, 32);
    const auto first = scripted_rollout(bert, 25);
    const auto second = scripted_rollout(bert, 25);
    ASSERT_GT(first.size(), 1u);
    EXPECT_EQ(first, second);
}

TEST(Candidate_engine, HandlesRulelessCorpus)
{
    const Rule_set empty;
    Candidate_engine engine(empty, Candidate_engine_config{4, 1});
    Graph_builder b;
    const Edge x = b.input({4, 4});
    const Graph host = b.finish({b.relu(x)});
    const Candidate_engine::Step& step = engine.generate(host);
    EXPECT_EQ(step.enumerated, 0u);
    EXPECT_TRUE(step.candidates.empty());
}

} // namespace
} // namespace xrl
