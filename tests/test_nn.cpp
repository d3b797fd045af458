#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

#include "nn/adam.h"
#include "nn/autograd.h"
#include "nn/layers.h"
#include "support/check.h"

namespace xrl {
namespace {

/// Central-difference gradient check: `loss_fn` rebuilds the computation
/// from the parameter on a fresh tape each call.
void check_gradients(Parameter& p, const std::function<double(Tape&, Var)>& loss_builder,
                     float tolerance = 2e-2F)
{
    // Analytic gradients.
    p.zero_grad();
    {
        Tape tape;
        const Var leaf = tape.param(p);
        Tape inner; // unused; loss_builder uses the same tape
        (void)inner;
        const double loss = loss_builder(tape, leaf);
        (void)loss;
    }

    // loss_builder already ran backward; now compare against finite
    // differences.
    const float eps = 1e-3F;
    for (std::int64_t i = 0; i < p.value.volume(); ++i) {
        const float saved = p.value.at(i);
        p.value.at(i) = saved + eps;
        Tape tp;
        const double up = loss_builder(tp, tp.param(p)); // note: backward also runs; grads polluted
        p.value.at(i) = saved - eps;
        Tape tm;
        const double down = loss_builder(tm, tm.param(p));
        p.value.at(i) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(p.grad.at(i), numeric, tolerance)
            << "component " << i << " analytic " << p.grad.at(i) << " numeric " << numeric;
        // Note: the finite-difference passes accumulate extra gradients; we
        // only compare against the first (analytic) pass, so freeze it.
    }
}

/// Wrapper that runs backward once and returns the loss value, but only
/// accumulates gradients on the *first* invocation.
std::function<double(Tape&, Var)> once_backward(const std::function<Var(Tape&, Var)>& forward)
{
    auto first = std::make_shared<bool>(true);
    return [forward, first](Tape& tape, Var leaf) {
        const Var loss = forward(tape, leaf);
        const double value = tape.value(loss).at(0);
        if (*first) {
            tape.backward(loss);
            *first = false;
        }
        return value;
    };
}

TEST(Autograd, AddBroadcastGradient)
{
    Rng rng(1);
    Parameter p(Tensor::random_uniform({1, 4}, rng)); // bias row
    const Tensor x = Tensor::random_uniform({3, 4}, rng);
    check_gradients(p, once_backward([&x](Tape& t, Var leaf) {
                        return t.sum_all(t.mul(t.add(t.constant(x), leaf), t.constant(x)));
                    }));
}

TEST(Autograd, MatmulGradient)
{
    Rng rng(2);
    Parameter p(Tensor::random_uniform({3, 4}, rng));
    const Tensor x = Tensor::random_uniform({2, 3}, rng);
    check_gradients(p, once_backward([&x](Tape& t, Var leaf) {
                        return t.sum_all(t.square(t.matmul(t.constant(x), leaf)));
                    }));
}

TEST(Autograd, ReluAndLeakyReluGradient)
{
    Rng rng(3);
    Parameter p(Tensor::random_uniform({2, 5}, rng, -1.0F, 1.0F));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.relu(leaf));
                    }));
    Parameter q(Tensor::random_uniform({2, 5}, rng, -1.0F, 1.0F));
    check_gradients(q, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.leaky_relu(leaf, 0.2F));
                    }));
}

TEST(Autograd, TanhExpLogGradient)
{
    Rng rng(4);
    Parameter p(Tensor::random_uniform({2, 3}, rng, 0.2F, 1.5F));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.log(t.exp(t.tanh(leaf))));
                    }));
}

TEST(Autograd, MinimumAndClampGradient)
{
    Rng rng(5);
    Parameter p(Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F));
    const Tensor other = Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F);
    check_gradients(p, once_backward([&other](Tape& t, Var leaf) {
                        return t.sum_all(t.minimum(leaf, t.constant(other)));
                    }));
    Parameter q(Tensor::random_uniform({2, 3}, rng, -2.0F, 2.0F));
    check_gradients(q, once_backward([](Tape& t, Var leaf) {
                        return t.sum_all(t.clamp(leaf, -0.5F, 0.5F));
                    }));
}

TEST(Autograd, ConcatGatherSegmentGradient)
{
    Rng rng(6);
    Parameter p(Tensor::random_uniform({4, 3}, rng));
    const std::vector<std::int64_t> gather_idx = {0, 2, 2, 3, 1};
    const std::vector<std::int64_t> segments = {0, 1, 1, 0, 2};
    check_gradients(p, once_backward([&](Tape& t, Var leaf) {
                        const Var g = t.gather_rows(leaf, gather_idx);
                        const Var s = t.segment_sum(g, segments, 3);
                        const Var c = t.concat_cols(s, s);
                        const Var r = t.concat_rows(c, c);
                        return t.sum_all(t.square(r));
                    }));
}

TEST(Autograd, SegmentSoftmaxGradient)
{
    Rng rng(7);
    Parameter p(Tensor::random_uniform({6, 1}, rng, -1.0F, 1.0F));
    const std::vector<std::int64_t> segments = {0, 0, 1, 1, 1, 2};
    const Tensor weights = Tensor::random_uniform({6, 1}, rng);
    check_gradients(p, once_backward([&](Tape& t, Var leaf) {
                        const Var sm = t.segment_softmax(leaf, segments, 3);
                        return t.sum_all(t.mul(sm, t.constant(weights)));
                    }),
                    3e-2F);
}

TEST(Autograd, SegmentSoftmaxSumsToOnePerSegment)
{
    Tape tape;
    const Var scores = tape.constant(Tensor(Shape{5, 1}, {1.0F, 2.0F, -1.0F, 0.5F, 3.0F}));
    const Var sm = tape.segment_softmax(scores, {0, 0, 1, 1, 1}, 2);
    const Tensor& y = tape.value(sm);
    EXPECT_NEAR(y.at(0) + y.at(1), 1.0F, 1e-5F);
    EXPECT_NEAR(y.at(2) + y.at(3) + y.at(4), 1.0F, 1e-5F);
}

TEST(Autograd, PickAndMeanGradient)
{
    Rng rng(8);
    Parameter p(Tensor::random_uniform({3, 3}, rng));
    check_gradients(p, once_backward([](Tape& t, Var leaf) {
                        return t.add(t.pick(leaf, 4), t.mean_all(leaf));
                    }));
}

TEST(Autograd, GradientsAccumulateAcrossTapes)
{
    Parameter p(Tensor::full({1, 1}, 2.0F));
    for (int i = 0; i < 3; ++i) {
        Tape tape;
        const Var loss = tape.square(tape.param(p)); // d/dp = 2p = 4
        tape.backward(loss);
    }
    EXPECT_NEAR(p.grad.at(0), 12.0F, 1e-5F); // 3 accumulated passes
}

TEST(Autograd, SharedSubexpressionGetsSummedGradient)
{
    Parameter p(Tensor::full({1, 1}, 3.0F));
    Tape tape;
    const Var leaf = tape.param(p);
    const Var y = tape.add(tape.square(leaf), leaf); // y = p^2 + p, dy/dp = 2p+1
    tape.backward(tape.sum_all(y));
    EXPECT_NEAR(p.grad.at(0), 7.0F, 1e-5F);
}

// -- fast-path gradients and the lazy-gradient contract ------------------------
//
// The loss sum_all(mul(out, upstream)) hands `out` exactly `upstream` as its
// gradient, so each gradient below is compared bit for bit against a naive
// loop over `upstream`. Gradients accumulate into zeros, hence the 0.0F +.

void expect_bitwise_equal(const Tensor& actual, const Tensor& expected)
{
    ASSERT_EQ(actual.shape(), expected.shape());
    for (std::int64_t i = 0; i < actual.volume(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(actual.at(i)), std::bit_cast<std::uint32_t>(expected.at(i)))
            << "element " << i << ": " << actual.at(i) << " vs " << expected.at(i);
}

/// Random values with zeros, -0.0 and +-inf sprinkled in.
Tensor special_values(Shape shape, std::uint64_t seed)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    Rng rng(seed);
    Tensor t = Tensor::random_uniform(std::move(shape), rng);
    const float specials[] = {0.0F, -0.0F, inf, -inf};
    for (std::int64_t i = 0; i < t.volume(); i += 3) t.at(i) = specials[(i / 3) % 4];
    return t;
}

void backward_with_upstream(Tape& tape, Var out, const Tensor& upstream)
{
    tape.backward(tape.sum_all(tape.mul(out, tape.constant(upstream))));
}

TEST(TapeFastPaths, BroadcastGradientsSumInAscendingOrder)
{
    Rng rng(51);
    const Tensor x = Tensor::random_uniform({6, 5}, rng);
    const Tensor upstream = special_values({6, 5}, 52);

    Tape tape; // bias row: (m,n) + (1,n) sums the columns of upstream
    const Var bias = tape.constant(Tensor::random_uniform({1, 5}, rng));
    backward_with_upstream(tape, tape.add(tape.constant(x), bias), upstream);
    Tensor columns(Shape{1, 5});
    for (std::int64_t j = 0; j < 5; ++j) {
        float acc = 0.0F;
        for (std::int64_t i = 0; i < 6; ++i) acc += upstream.at(i * 5 + j);
        columns.at(j) = 0.0F + acc;
    }
    expect_bitwise_equal(tape.grad(bias), columns);

    Tape tape2; // GAT weighting: (m,n) * (m,1) sums each row of upstream * x
    const Var h = tape2.constant(x);
    const Var alpha = tape2.constant(Tensor::random_uniform({6, 1}, rng));
    backward_with_upstream(tape2, tape2.mul(h, alpha), upstream);
    Tensor rows(Shape{6, 1});
    Tensor dh(Shape{6, 5});
    for (std::int64_t i = 0; i < 6; ++i) {
        float acc = 0.0F;
        for (std::int64_t j = 0; j < 5; ++j) {
            acc += upstream.at(i * 5 + j) * x.at(i * 5 + j);
            dh.at(i * 5 + j) = 0.0F + upstream.at(i * 5 + j) * tape2.value(alpha).at(i);
        }
        rows.at(i) = 0.0F + acc;
    }
    expect_bitwise_equal(tape2.grad(alpha), rows);
    expect_bitwise_equal(tape2.grad(h), dh);

    Tape tape3; // scalar: (m,n) + (1,1) sums columns, then that row
    const Var s = tape3.constant(Tensor(Shape{1, 1}, {0.5F}));
    backward_with_upstream(tape3, tape3.add(tape3.constant(x), s), upstream);
    float total = 0.0F;
    for (std::int64_t j = 0; j < 5; ++j) total += columns.at(j);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(tape3.grad(s).at(0)), std::bit_cast<std::uint32_t>(0.0F + total));
}

TEST(TapeFastPaths, MatmulGradientsMatchNaiveLoopsWithZeroSkip)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    const std::int64_t m = 6;
    const std::int64_t k = 5;
    const std::int64_t n = 4;
    // A holds zeros, -0.0 and inf; B has inf wherever A's first column is
    // zero, and the upstream gradient holds zeros where B is inf, so both
    // gradients stay finite only through matmul's skip of zero lhs entries.
    const Tensor a_value = special_values({m, k}, 61);
    Tensor b_value = special_values({k, n}, 62);
    Tensor upstream = special_values({m, n}, 63);
    for (std::int64_t i = 0; i < m; ++i)
        if (a_value.at(i * k) == 0.0F) upstream.at(i * n) = inf;
    for (std::int64_t j = 0; j < n; ++j) upstream.at(j) = 0.0F;
    for (std::int64_t kk = 0; kk < k; ++kk) b_value.at(kk * n) = kk % 2 == 0 ? inf : 0.0F;

    Tape tape;
    const Var a = tape.constant(a_value);
    const Var b = tape.constant(b_value);
    backward_with_upstream(tape, tape.matmul(a, b), upstream);

    Tensor da(Shape{m, k}); // g·Bᵀ, skipping zero g
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
            float acc = 0.0F;
            for (std::int64_t j = 0; j < n; ++j) {
                const float g = upstream.at(i * n + j);
                if (g == 0.0F) continue;
                acc += g * b_value.at(kk * n + j);
            }
            da.at(i * k + kk) = 0.0F + acc;
        }
    }
    Tensor db(Shape{k, n}); // Aᵀ·g, skipping zero A
    for (std::int64_t kk = 0; kk < k; ++kk) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0F;
            for (std::int64_t i = 0; i < m; ++i) {
                const float av = a_value.at(i * k + kk);
                if (av == 0.0F) continue;
                acc += av * upstream.at(i * n + j);
            }
            db.at(kk * n + j) = 0.0F + acc;
        }
    }
    expect_bitwise_equal(tape.grad(a), da);
    expect_bitwise_equal(tape.grad(b), db);
    EXPECT_FALSE(std::isnan(db.at(0)));
}

TEST(TapeFastPaths, ZeroRowOperandsKeepTheirShapes)
{
    Tape tape;
    const Var empty = tape.constant(Tensor(Shape{0, 3}));
    const Var bias = tape.constant(Tensor::full({1, 3}, 2.0F));
    const Var rows = tape.concat_rows(tape.add(empty, bias), tape.constant(Tensor::full({2, 3}, 1.0F)));
    tape.backward(tape.sum_all(rows));
    EXPECT_EQ(tape.value(rows).shape(), (Shape{2, 3}));
    EXPECT_EQ(tape.grad(empty).shape(), (Shape{0, 3}));
    expect_bitwise_equal(tape.grad(bias), Tensor(Shape{1, 3}));
}

TEST(TapeContract, GradientsExistOnlyAfterBackward)
{
    Parameter p(Tensor::full({2, 2}, 1.5F));
    Tape tape;
    const Var leaf = tape.param(p);
    const Var loss = tape.sum_all(tape.square(leaf));
    EXPECT_THROW(tape.grad(leaf), Contract_violation);
    EXPECT_THROW(tape.grad(loss), Contract_violation);
    tape.backward(loss);
    expect_bitwise_equal(tape.grad(leaf), Tensor::full({2, 2}, 3.0F));
    EXPECT_EQ(tape.grad(loss).at(0), 1.0F);
    EXPECT_THROW(tape.grad(Var{}), Contract_violation);
    // A var pushed after the sweep has no gradient until the next one.
    const Var late = tape.scale(leaf, 2.0F);
    EXPECT_THROW(tape.grad(late), Contract_violation);
}

TEST(Layers, LinearShapeAndBias)
{
    Rng rng(9);
    Linear layer(4, 6, rng);
    Tape tape;
    const Var x = tape.constant(Tensor::random_uniform({3, 4}, rng));
    const Var y = layer(tape, x);
    EXPECT_EQ(tape.value(y).shape(), (Shape{3, 6}));
    EXPECT_EQ(layer.parameters().size(), 2u);
}

TEST(Layers, MlpArchitecture)
{
    Rng rng(10);
    Mlp mlp(8, {256, 64}, 1, rng); // Table 4 head shape
    Tape tape;
    const Var x = tape.constant(Tensor::random_uniform({5, 8}, rng));
    const Var y = mlp(tape, x);
    EXPECT_EQ(tape.value(y).shape(), (Shape{5, 1}));
    EXPECT_EQ(mlp.parameters().size(), 6u); // 3 layers x (w, b)
}

TEST(Adam, MinimisesQuadratic)
{
    Parameter p(Tensor::full({1, 1}, 5.0F));
    Adam_config config;
    config.learning_rate = 0.1;
    config.max_grad_norm = 0.0;
    Adam adam({&p}, config);
    for (int i = 0; i < 200; ++i) {
        Tape tape;
        const Var loss = tape.square(tape.param(p));
        tape.backward(loss);
        adam.step();
    }
    EXPECT_NEAR(p.value.at(0), 0.0F, 0.05F);
}

TEST(Adam, FitsLinearRegression)
{
    Rng rng(11);
    const Tensor x = Tensor::random_uniform({32, 2}, rng);
    // Target y = x * [2, -3]^T + 1.
    Tensor target(Shape{32, 1});
    for (std::int64_t i = 0; i < 32; ++i)
        target.at(i) = 2.0F * x.at(i * 2) - 3.0F * x.at(i * 2 + 1) + 1.0F;

    Linear layer(2, 1, rng);
    Adam_config config;
    config.learning_rate = 0.05;
    Adam adam(layer.parameters(), config);
    double final_loss = 1e9;
    for (int i = 0; i < 400; ++i) {
        Tape tape;
        const Var pred = layer(tape, tape.constant(x));
        const Var err = tape.sub(pred, tape.constant(target));
        const Var loss = tape.mean_all(tape.square(err));
        final_loss = tape.value(loss).at(0);
        tape.backward(loss);
        adam.step();
    }
    EXPECT_LT(final_loss, 1e-3);
    EXPECT_NEAR(layer.weight().value.at(0), 2.0F, 0.1F);
    EXPECT_NEAR(layer.weight().value.at(1), -3.0F, 0.1F);
    EXPECT_NEAR(layer.bias().value.at(0), 1.0F, 0.1F);
}

TEST(Adam, GradientClippingBoundsNorm)
{
    Parameter p(Tensor::full({1, 1}, 1.0F));
    p.grad.at(0) = 100.0F;
    Adam_config config;
    config.learning_rate = 1.0;
    config.max_grad_norm = 0.5;
    Adam adam({&p}, config);
    adam.step();
    // First Adam step magnitude is ~lr regardless, but the clipped gradient
    // must not explode the moments; value stays finite and close.
    EXPECT_TRUE(std::isfinite(p.value.at(0)));
    EXPECT_GT(p.value.at(0), -1.5F);
}

} // namespace
} // namespace xrl
