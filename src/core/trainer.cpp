#include "core/trainer.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "support/check.h"
#include "support/logging.h"
#include "support/metrics.h"

namespace xrl {

namespace {

const Encoded_graph& encode_state(Meta_encoder& encoder, std::vector<const Graph*>& candidate_ptrs,
                                  const Environment& env)
{
    candidate_ptrs.clear();
    candidate_ptrs.reserve(env.candidates().size());
    for (const Candidate& c : env.candidates()) candidate_ptrs.push_back(c.graph);
    return encoder.encode(env.current_graph(), candidate_ptrs);
}

/// PPO update phases share the rollout family; histograms only, no spans
/// (trace consumers file unknown rollout/* spans under serving).
Histogram& update_phase_histogram(const char* phase)
{
    return Metrics_registry::global().histogram("xrlflow_rollout_phase_us", "RL rollout time by phase",
                                                duration_us_buckets(), {{"phase", phase}});
}

} // namespace

Trainer::Trainer(Agent& agent, Environment& env, Trainer_config config)
    : agent_(&agent),
      env_(&env),
      config_(std::move(config)),
      adam_(agent.parameters(), config_.ppo.adam),
      rng_(config_.seed)
{
}

Episode_stats Trainer::run_episode(bool greedy, bool record)
{
    env_->reset();
    Episode_stats stats;
    stats.best_latency_ms = env_->initial_latency_ms();

    Meta_encoder encoder;
    std::vector<const Graph*> candidate_ptrs;
    while (!env_->done()) {
        const Encoded_graph& state = encode_state(encoder, candidate_ptrs, *env_);
        const std::vector<std::uint8_t> mask = env_->action_mask();
        const Agent::Decision decision = agent_->act(state, mask, rng_, greedy);
        const Env_step outcome = env_->step(decision.action);

        stats.episode_return += outcome.reward;
        ++stats.steps;
        if (outcome.measured)
            stats.best_latency_ms = std::min(stats.best_latency_ms, outcome.latency_ms);
        if (outcome.done && decision.action == env_->noop_action()) stats.ended_with_noop = true;

        if (record) {
            Transition t;
            t.state = state; // copy: the encoder's buffer is reused next step
            t.mask = mask;
            t.action = decision.action;
            t.log_prob = decision.log_prob;
            t.value = decision.value;
            t.reward = outcome.reward;
            t.done = outcome.done ? 1 : 0;
            buffer_.push_back(std::move(t));
        }
    }
    stats.final_latency_ms = env_->last_latency_ms();
    return stats;
}

int Trainer::train(int episodes)
{
    int updates = 0;
    for (int episode = 0; episode < episodes; ++episode) {
        const Episode_stats stats = run_episode(/*greedy=*/false, /*record=*/true);
        history_.push_back(stats);
        if (config_.verbose) {
            log_info("episode ", episode, ": return=", stats.episode_return,
                     " final_ms=", stats.final_latency_ms, " steps=", stats.steps);
        }
        if ((episode + 1) % config_.update_every_episodes == 0 && !buffer_.empty()) {
            update();
            ++updates;
        }
    }
    if (!buffer_.empty()) {
        update();
        ++updates;
    }
    return updates;
}

void Trainer::update()
{
    static Histogram& forward_histogram = update_phase_histogram("ppo_forward");
    static Histogram& backward_histogram = update_phase_histogram("ppo_backward");
    static Histogram& adam_histogram = update_phase_histogram("adam_step");

    const std::size_t n = buffer_.size();
    std::vector<double> rewards(n);
    std::vector<double> values(n);
    std::vector<std::uint8_t> dones(n);
    for (std::size_t i = 0; i < n; ++i) {
        rewards[i] = buffer_[i].reward;
        values[i] = buffer_[i].value;
        dones[i] = buffer_[i].done;
    }
    Gae_result gae = compute_gae(rewards, values, dones, config_.ppo.gae);
    normalise_advantages(gae.advantages);

    Update_stats totals;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    for (int epoch = 0; epoch < config_.ppo.epochs; ++epoch) {
        // Fisher-Yates shuffle with our deterministic rng.
        for (std::size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng_.uniform_index(i)]);

        for (std::size_t begin = 0; begin < n; begin += static_cast<std::size_t>(config_.ppo.minibatch_size)) {
            const std::size_t end =
                std::min(begin + static_cast<std::size_t>(config_.ppo.minibatch_size), n);
            const auto batch = static_cast<float>(end - begin);

            // Each emplace() closes the running phase's timer and starts the next.
            std::optional<Scoped_timer_us> phase(std::in_place, forward_histogram);
            Tape tape;
            Var total_loss = tape.constant(Tensor(Shape{1, 1}));
            double policy_loss_value = 0.0;
            double value_loss_value = 0.0;
            double entropy_value = 0.0;

            for (std::size_t bi = begin; bi < end; ++bi) {
                const Transition& t = buffer_[order[bi]];
                const auto adv = static_cast<float>(gae.advantages[order[bi]]);
                const auto ret = static_cast<float>(gae.returns[order[bi]]);

                const Agent::Forward fwd = agent_->forward(tape, t.state);
                const Categorical_vars dist = masked_categorical(tape, fwd.logits, t.mask);
                const Var log_prob = tape.pick(dist.log_probs, t.action);

                // Eq. 3 (clip objective), maximised => negated into the loss.
                const Var ratio = tape.exp(
                    tape.add(log_prob, tape.constant(Tensor::scalar(-static_cast<float>(t.log_prob))
                                                         .reshaped({1, 1}))));
                const Var unclipped = tape.scale(ratio, adv);
                const Var clipped = tape.scale(
                    tape.clamp(ratio, 1.0F - static_cast<float>(config_.ppo.clip),
                               1.0F + static_cast<float>(config_.ppo.clip)),
                    adv);
                const Var objective = tape.minimum(unclipped, clipped);

                // Eq. 4 (value regression).
                const Var value_error =
                    tape.square(tape.add(fwd.value, tape.constant(Tensor(Shape{1, 1}, {-ret}))));

                // Eq. 5: J = L_clip + c1 L_vf + c2 L_entropy.
                Var item_loss = tape.neg(objective);
                item_loss = tape.add(
                    item_loss, tape.scale(value_error, static_cast<float>(config_.ppo.value_coef)));
                item_loss = tape.add(item_loss, tape.scale(dist.entropy,
                                                           -static_cast<float>(config_.ppo.entropy_coef)));
                total_loss = tape.add(total_loss, item_loss);

                policy_loss_value += -tape.value(objective).at(0);
                value_loss_value += tape.value(value_error).at(0);
                entropy_value += tape.value(dist.entropy).at(0);
            }

            const Var loss = tape.scale(total_loss, 1.0F / batch);
            phase.emplace(backward_histogram);
            tape.backward(loss);
            phase.emplace(adam_histogram);
            adam_.step();
            phase.reset();

            totals.mean_policy_loss += policy_loss_value / batch;
            totals.mean_value_loss += value_loss_value / batch;
            totals.mean_entropy += entropy_value / batch;
            ++totals.minibatches;
        }
    }

    if (totals.minibatches > 0) {
        totals.mean_policy_loss /= totals.minibatches;
        totals.mean_value_loss /= totals.minibatches;
        totals.mean_entropy /= totals.minibatches;
    }
    last_update_ = totals;
    buffer_.clear();
}

} // namespace xrl
