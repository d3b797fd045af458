// Shared candidate-generation engine.
//
// Every optimisation step in X-RLflow (§3.2) regenerates the candidate set
// by pattern-matching the whole rule corpus against the current graph, and
// all four search backends (the RL environment, TASO beam search, the PET
// wrapper, Tensat's multi-pattern seeding) do the same pass. The engine is
// the one implementation of it, behind one call — generate(host, cap, via):
//
//   1. a per-step op-kind index of the host graph (Host_index), shared by
//      every rule, so root enumeration visits only kind-compatible nodes.
//      The index persists across calls: pass the previous call's chosen
//      candidate as `via` and it is patched from that candidate's
//      Rewrite_delta instead of rebuilt;
//   2. the undo-log matcher behind find_matches (no per-root state copies);
//   3. lazy candidates: matching yields lightweight records with a cheap
//      fingerprint (the matcher's match-site binding key mixed with the rule
//      id) gating materialisation — the graph copy + DCE + shape inference +
//      canonical hash run only for fingerprint-unique records, and never for
//      records beyond the caller's cap (for pattern rules the matcher
//      already dedups sites within a rule, so the gate mainly covers the
//      eagerly built rules below);
//   4. materialisation into recycled pool slots (apply_match_into), so a
//      steady-state call allocates ~nothing;
//   5. thread-pool fan-out across rules with deterministic result ordering
//      (results are collected into per-rule slots, so the output never
//      depends on thread scheduling).
//
// Rules that are not Pattern_rules (the bespoke shape-dependent rules)
// cannot defer materialisation — their apply_all *is* the site enumeration
// — so the engine runs them eagerly inside the fan-out and fingerprints
// them by result hash; everything downstream treats both kinds uniformly.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "ir/graph.h"
#include "rules/pattern.h"
#include "rules/rule.h"
#include "support/arena.h"
#include "support/thread_pool.h"

namespace xrl {

struct Candidate_engine_config {
    /// Candidates enumerated per rule per step (the environment's
    /// per_rule_limit; TASO's max_candidates_per_step).
    std::size_t per_rule_limit = SIZE_MAX;

    /// Fan-out mode: 0 = the process-wide shared pool (sized to the
    /// hardware), 1 = strictly serial, N > 1 = also the shared pool (the
    /// per-rule slot collection makes results order-independent, so a
    /// private width bought nothing but thread churn — engines are
    /// constructed per search, and the serving layer shares the same
    /// pool). The result order is identical for every setting.
    std::size_t threads = 0;

    /// After every incremental Host_index patch, rebuild the index from
    /// scratch and assert exact equality. On by default in debug builds;
    /// the A/B gate (test_incremental_index) turns it on explicitly in
    /// release builds too.
    bool verify_incremental_index =
#ifndef NDEBUG
        true;
#else
        false;
#endif
};

/// One candidate of a generation pass: a canonically deduplicated rewrite
/// of the host. The graph lives in a pool slot owned by the engine (bespoke
/// rules: in the engine's per-rule batch) and, like the delta, stays valid
/// until the engine's next generate() call. A caller that keeps a graph may
/// move it out instead of copying it; the engine refills the slot on the
/// next call.
struct Candidate {
    Graph* graph = nullptr;
    int rule_index = -1;
    std::uint64_t hash = 0; ///< canonical_hash of `*graph`.
    /// How `*graph` differs from the host (for the next call's index
    /// patch); null for bespoke rules, which cannot report one.
    const Rewrite_delta* delta = nullptr;
};

/// A step cursor over one evolving host. Each engine has exactly one owner
/// (the environment, or the search call that constructed it); it is NOT
/// thread-safe (see docs/CONCURRENCY.md).
class Candidate_engine {
public:
    /// `rules` must outlive the engine.
    explicit Candidate_engine(const Rule_set& rules, Candidate_engine_config config = {});

    const Rule_set& rules() const { return *rules_; }

    /// The result of one generate() call.
    struct Step {
        std::vector<Candidate> candidates;
        std::size_t enumerated = 0; ///< Fingerprint-unique records matched.
        std::size_t truncated = 0;  ///< Records never materialised: cap reached.
    };

    /// Every rule applied at every site of `host`, deduplicated by canonical
    /// hash against the host and against earlier candidates, ordered by
    /// (rule index, discovery order within the rule) regardless of the
    /// thread count. Materialisation stops at `max_total` candidates; the
    /// remaining records are only counted.
    ///
    /// `via`: the candidate of the previous call that became `host` — the
    /// persistent index is patched from its delta and the host's hash taken
    /// from it. Pass null on the first call, after a reset, or when the host
    /// changed some other way (the index is then rebuilt). `via` may point
    /// into the previous result; it is read before any storage is reused.
    /// The returned reference and every candidate in it are invalidated by
    /// the next call.
    const Step& generate(const Graph& host, std::size_t max_total = SIZE_MAX,
                         const Candidate* via = nullptr);

    /// The persistent index (null before the first generate) — exposed for
    /// the incremental-vs-rebuild A/B gate.
    const Host_index* step_index() const { return index_ready_ ? &index_ : nullptr; }

    /// Pool/arena statistics of the candidate slot pool (bench artifacts).
    const Pool_stats& step_pool_stats() const { return slot_pool_.stats(); }
    const Arena_stats& step_arena_stats() const { return slot_pool_.arena_stats(); }

private:
    /// A candidate matched but not yet materialised: which rule, where, and
    /// a fingerprint that dedups repeat discoveries before the expensive
    /// apply_match. Bespoke-rule records reference their eagerly built graph
    /// by index into the rule's batch instead.
    struct Record {
        std::size_t rule_index = 0;
        Pattern_match match;             ///< Pattern rules: the match site.
        std::uint64_t fingerprint = 0;   ///< Cheap pre-materialisation dedup key.
        std::ptrdiff_t batch_slot = -1;  ///< Bespoke rules: index into the rule's batch.
    };

    /// Match + fingerprint-dedup against index_, filling records_ (capacity
    /// reused across calls).
    void match_records(const Graph& host);

    /// A recycled materialisation target: the graph and the delta that
    /// turns the host's index into the graph's.
    struct Slot {
        Graph graph;
        Rewrite_delta delta;
    };

    const Rule_set* rules_;
    Candidate_engine_config config_;
    std::vector<const Pattern_rule*> pattern_rules_; ///< Per rule; null = generic.
    Thread_pool* pool_ = nullptr; ///< The shared pool; null = serial.

    Host_index index_;
    bool index_ready_ = false;
    Pool<Slot> slot_pool_;
    std::vector<Slot*> leased_; ///< Slots backing step_.candidates.
    /// Per-rule record buckets of the fan-out, merged into records_.
    std::vector<std::vector<Record>> per_rule_;
    /// One recycled batch per bespoke rule: their eagerly built candidates
    /// land in warm storage and stay alive until the next call.
    std::vector<Graph_batch> bespoke_;
    std::vector<Record> records_;
    std::unordered_set<std::uint64_t> fingerprints_seen_;
    std::unordered_set<std::uint64_t> hashes_seen_;
    Step step_;
};

class Histogram;

/// The registry histogram `xrlflow_candidate_phase_us{phase=...}` every
/// engine instance times its pipeline phases into (index_build, match,
/// dedup, materialise, finalise_rewrite). Exposed so the benches can read
/// per-phase snapshots into BENCH_candidates.json.
Histogram& candidate_phase_histogram(const char* phase);

} // namespace xrl
