#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "support/check.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace xrl {
namespace {

TEST(Shape, VolumeOfScalarIsOne)
{
    EXPECT_EQ(shape_volume({}), 1);
}

TEST(Shape, VolumeMultipliesExtents)
{
    EXPECT_EQ(shape_volume({2, 3, 4}), 24);
    EXPECT_EQ(shape_volume({5, 0}), 0);
}

TEST(Shape, ToStringFormats)
{
    EXPECT_EQ(shape_to_string({1, 3, 256, 256}), "[1, 3, 256, 256]");
    EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, ZeroInitialised)
{
    const Tensor t(Shape{2, 2});
    for (std::int64_t i = 0; i < t.volume(); ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, ConstructionChecksVolume)
{
    EXPECT_THROW(Tensor(Shape{2, 2}, {1.0F, 2.0F}), Contract_violation);
}

TEST(Tensor, FlatIndexRowMajor)
{
    const Tensor t(Shape{2, 3, 4});
    EXPECT_EQ(t.flat_index({0, 0, 0}), 0);
    EXPECT_EQ(t.flat_index({0, 0, 3}), 3);
    EXPECT_EQ(t.flat_index({0, 1, 0}), 4);
    EXPECT_EQ(t.flat_index({1, 2, 3}), 23);
}

TEST(Tensor, ReshapePreservesData)
{
    const Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor r = t.reshaped({3, 2});
    EXPECT_EQ(r.shape(), (Shape{3, 2}));
    EXPECT_EQ(r.at(5), 6.0F);
    EXPECT_THROW(t.reshaped({4, 2}), Contract_violation);
}

TEST(Tensor, AllCloseDetectsDifferences)
{
    const Tensor a(Shape{2}, {1.0F, 2.0F});
    const Tensor b(Shape{2}, {1.0F, 2.00001F});
    const Tensor c(Shape{2}, {1.0F, 3.0F});
    EXPECT_TRUE(Tensor::all_close(a, b, 1e-4F));
    EXPECT_FALSE(Tensor::all_close(a, c, 1e-4F));
    EXPECT_FALSE(Tensor::all_close(a, Tensor(Shape{1, 2}, {1.0F, 2.0F})));
}

TEST(Broadcast, ShapesFollowNumpyRules)
{
    EXPECT_EQ(broadcast_shapes({2, 3}, {2, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({2, 1}, {1, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({3}, {2, 3}), (Shape{2, 3}));
    EXPECT_EQ(broadcast_shapes({}, {4, 5}), (Shape{4, 5}));
    EXPECT_EQ(broadcast_shapes({0, 3}, {1, 3}), (Shape{0, 3}));
    EXPECT_EQ(broadcast_shapes({1, 3}, {0, 1}), (Shape{0, 3}));
    EXPECT_THROW(broadcast_shapes({2, 3}, {2, 4}), Contract_violation);
}

TEST(Ewise, AddSameShape)
{
    const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2}, {10, 20, 30, 40});
    const Tensor c = add(a, b);
    EXPECT_EQ(c.values(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(Ewise, AddBroadcastRow)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor bias(Shape{3}, {10, 20, 30});
    const Tensor c = add(a, bias);
    EXPECT_EQ(c.values(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Ewise, MulBroadcastColumn)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor col(Shape{2, 1}, {2, 3});
    const Tensor c = mul(a, col);
    EXPECT_EQ(c.values(), (std::vector<float>{2, 4, 6, 12, 15, 18}));
}

TEST(Ewise, SubAndDiv)
{
    const Tensor a(Shape{2}, {6, 9});
    const Tensor b(Shape{2}, {2, 3});
    EXPECT_EQ(sub(a, b).values(), (std::vector<float>{4, 6}));
    EXPECT_EQ(div(a, b).values(), (std::vector<float>{3, 3}));
}

TEST(Ewise, UnaryFunctions)
{
    const Tensor a(Shape{3}, {-1.0F, 0.0F, 2.0F});
    EXPECT_EQ(relu(a).values(), (std::vector<float>{0, 0, 2}));
    EXPECT_FLOAT_EQ(leaky_relu(a, 0.1F).at(0), -0.1F);
    EXPECT_FLOAT_EQ(sigmoid(Tensor::scalar(0.0F)).at(0), 0.5F);
    EXPECT_NEAR(tanh_op(Tensor::scalar(1.0F)).at(0), std::tanh(1.0F), 1e-6F);
    EXPECT_NEAR(exp_op(Tensor::scalar(1.0F)).at(0), std::exp(1.0F), 1e-5F);
    EXPECT_FLOAT_EQ(sqrt_op(Tensor::scalar(9.0F)).at(0), 3.0F);
    EXPECT_NEAR(gelu(Tensor::scalar(0.0F)).at(0), 0.0F, 1e-6F);
    EXPECT_FLOAT_EQ(scale(a, 2.0F).at(2), 4.0F);
}

TEST(Matmul, TwoByTwo)
{
    const Tensor a(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2}, {5, 6, 7, 8});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.values(), (std::vector<float>{19, 22, 43, 50}));
}

TEST(Matmul, RectangularShapes)
{
    const Tensor a(Shape{1, 3}, {1, 2, 3});
    const Tensor b(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{1, 2}));
    EXPECT_EQ(c.values(), (std::vector<float>{4, 5}));
}

TEST(Matmul, BatchedBothSides)
{
    const Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
    const Tensor b(Shape{2, 2, 1}, {1, 1, 2, 2});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 1, 1}));
    EXPECT_EQ(c.values(), (std::vector<float>{3, 14}));
}

TEST(Matmul, BatchedBroadcastRhs)
{
    const Tensor a(Shape{2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
    const Tensor b(Shape{2, 2}, {1, 2, 3, 4});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
    EXPECT_EQ(c.values(), (std::vector<float>{1, 2, 3, 4, 2, 4, 6, 8}));
}

TEST(Matmul, MismatchedInnerDimThrows)
{
    const Tensor a(Shape{2, 3});
    const Tensor b(Shape{2, 2});
    EXPECT_THROW(matmul(a, b), Contract_violation);
}

TEST(Transpose, PermutesAxes)
{
    const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor t = transpose(a, {1, 0});
    EXPECT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_EQ(t.values(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(Transpose, Last2OnRank3)
{
    const Tensor a(Shape{2, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    const Tensor t = transpose_last2(a);
    EXPECT_EQ(t.shape(), (Shape{2, 3, 2}));
    EXPECT_EQ(t.at(0), 1.0F);
    EXPECT_EQ(t.at(1), 4.0F);
}

TEST(Transpose, DoubleTransposeIsIdentity)
{
    Rng rng(5);
    const Tensor a = Tensor::random_uniform({3, 4, 5}, rng);
    const Tensor round_trip = transpose(transpose(a, {2, 0, 1}), {1, 2, 0});
    EXPECT_TRUE(Tensor::all_close(a, round_trip, 0.0F));
}

TEST(ConcatSplit, RoundTripAxis0)
{
    Rng rng(6);
    const Tensor a = Tensor::random_uniform({2, 3}, rng);
    const Tensor b = Tensor::random_uniform({4, 3}, rng);
    const Tensor joined = concat({a, b}, 0);
    EXPECT_EQ(joined.shape(), (Shape{6, 3}));
    const auto parts = split(joined, 0, {2, 4});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

TEST(ConcatSplit, RoundTripInnerAxis)
{
    Rng rng(8);
    const Tensor a = Tensor::random_uniform({2, 2, 3}, rng);
    const Tensor b = Tensor::random_uniform({2, 5, 3}, rng);
    const Tensor joined = concat({a, b}, 1);
    EXPECT_EQ(joined.shape(), (Shape{2, 7, 3}));
    const auto parts = split(joined, 1, {2, 5});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

TEST(ConcatSplit, MismatchedSizesThrow)
{
    const Tensor a(Shape{2, 3});
    const Tensor b(Shape{2, 4});
    EXPECT_THROW(concat({a, b}, 0), Contract_violation);
    EXPECT_THROW(split(a, 0, {1, 2}), Contract_violation);
}

TEST(Slice, ExtractsHalfOpenRange)
{
    const Tensor a(Shape{4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    const Tensor s = slice(a, 0, 1, 3);
    EXPECT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s.values(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(Pad, ZeroPadsSpatially)
{
    const Tensor a(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor p = pad(a, {0, 0, 1, 1}, {0, 0, 1, 1});
    EXPECT_EQ(p.shape(), (Shape{1, 1, 4, 4}));
    EXPECT_EQ(p.at(0), 0.0F);
    EXPECT_EQ(p.at(5), 1.0F);
    EXPECT_EQ(p.at(10), 4.0F);
}

TEST(Conv2d, IdentityKernelPreservesInput)
{
    Rng rng(9);
    const Tensor x = Tensor::random_uniform({1, 1, 4, 4}, rng);
    Tensor w(Shape{1, 1, 3, 3});
    w.at(4) = 1.0F; // centre tap
    Conv2d_spec spec;
    spec.pad_h = 1;
    spec.pad_w = 1;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_TRUE(Tensor::all_close(x, y, 1e-6F));
}

TEST(Conv2d, HandComputedValues)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
    const Tensor w(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
    Conv2d_spec spec; // stride 1, no padding
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(y.at(0), 10.0F);
}

TEST(Conv2d, StrideReducesOutput)
{
    const Tensor x = Tensor::full({1, 1, 4, 4}, 1.0F);
    const Tensor w = Tensor::full({1, 1, 2, 2}, 1.0F);
    Conv2d_spec spec;
    spec.stride_h = 2;
    spec.stride_w = 2;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    for (std::int64_t i = 0; i < y.volume(); ++i) EXPECT_EQ(y.at(i), 4.0F);
}

TEST(Conv2d, GroupedConvPartitionsChannels)
{
    // Two groups, each a 1x1 identity kernel: output equals input.
    const Tensor x(Shape{1, 2, 1, 1}, {3, 5});
    const Tensor w(Shape{2, 1, 1, 1}, {1, 1});
    Conv2d_spec spec;
    spec.groups = 2;
    const Tensor y = conv2d(x, w, spec);
    EXPECT_EQ(y.values(), (std::vector<float>{3, 5}));
}

TEST(Conv2d, GroupedEqualsConcatOfPerGroupConvs)
{
    Rng rng(21);
    const Tensor x = Tensor::random_uniform({1, 4, 5, 5}, rng);
    const Tensor w = Tensor::random_uniform({6, 2, 3, 3}, rng);
    Conv2d_spec grouped;
    grouped.groups = 2;
    grouped.pad_h = grouped.pad_w = 1;
    const Tensor whole = conv2d(x, w, grouped);

    Conv2d_spec dense;
    dense.pad_h = dense.pad_w = 1;
    const auto xs = split(x, 1, {2, 2});
    const auto ws = split(w, 0, {3, 3});
    const Tensor part = concat({conv2d(xs[0], ws[0], dense), conv2d(xs[1], ws[1], dense)}, 1);
    EXPECT_TRUE(Tensor::all_close(whole, part, 1e-4F));
}

TEST(Pool, MaxPoolPicksMaxima)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
    Pool2d_spec spec;
    const Tensor y = max_pool2d(x, spec);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(y.at(0), 5.0F);
}

TEST(Pool, AvgPoolAverages)
{
    const Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 3});
    Pool2d_spec spec;
    const Tensor y = avg_pool2d(x, spec);
    EXPECT_EQ(y.at(0), 3.0F);
}

TEST(Pool, GlobalAvgPool)
{
    const Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
    const Tensor y = global_avg_pool(x);
    EXPECT_EQ(y.shape(), (Shape{1, 2, 1, 1}));
    EXPECT_FLOAT_EQ(y.at(0), 2.5F);
    EXPECT_FLOAT_EQ(y.at(1), 10.0F);
}

TEST(Norm, BatchNormMatchesFormula)
{
    const Tensor x(Shape{1, 1, 1, 2}, {2.0F, 4.0F});
    const Tensor gamma(Shape{1}, {2.0F});
    const Tensor beta(Shape{1}, {1.0F});
    const Tensor mean(Shape{1}, {3.0F});
    const Tensor variance(Shape{1}, {4.0F});
    const Tensor y = batch_norm(x, gamma, beta, mean, variance, 0.0F);
    EXPECT_NEAR(y.at(0), (2.0F - 3.0F) / 2.0F * 2.0F + 1.0F, 1e-5F);
    EXPECT_NEAR(y.at(1), (4.0F - 3.0F) / 2.0F * 2.0F + 1.0F, 1e-5F);
}

TEST(Norm, LayerNormNormalisesRows)
{
    Rng rng(31);
    const Tensor x = Tensor::random_uniform({4, 8}, rng);
    const Tensor gamma = Tensor::full({8}, 1.0F);
    const Tensor beta(Shape{8});
    const Tensor y = layer_norm(x, gamma, beta, 1e-6F);
    for (std::int64_t row = 0; row < 4; ++row) {
        float mean = 0.0F;
        for (std::int64_t i = 0; i < 8; ++i) mean += y.at(row * 8 + i);
        EXPECT_NEAR(mean / 8.0F, 0.0F, 1e-4F);
    }
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(33);
    const Tensor x = Tensor::random_uniform({5, 7}, rng, -4.0F, 4.0F);
    const Tensor y = softmax(x);
    for (std::int64_t row = 0; row < 5; ++row) {
        float total = 0.0F;
        for (std::int64_t i = 0; i < 7; ++i) {
            EXPECT_GT(y.at(row * 7 + i), 0.0F);
            total += y.at(row * 7 + i);
        }
        EXPECT_NEAR(total, 1.0F, 1e-5F);
    }
}

TEST(Softmax, InvariantToRowShift)
{
    const Tensor x(Shape{1, 3}, {1, 2, 3});
    const Tensor shifted(Shape{1, 3}, {101, 102, 103});
    EXPECT_TRUE(Tensor::all_close(softmax(x), softmax(shifted), 1e-5F));
}

TEST(Reduce, SumAndMeanAlongAxis)
{
    const Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor s0 = reduce_sum(x, 0, false);
    EXPECT_EQ(s0.shape(), (Shape{3}));
    EXPECT_EQ(s0.values(), (std::vector<float>{5, 7, 9}));
    const Tensor m1 = reduce_mean(x, 1, true);
    EXPECT_EQ(m1.shape(), (Shape{2, 1}));
    EXPECT_EQ(m1.values(), (std::vector<float>{2, 5}));
}

TEST(Embedding, GathersRows)
{
    const Tensor table(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
    const Tensor ids(Shape{2}, {2, 0});
    const Tensor y = embedding(ids, table);
    EXPECT_EQ(y.shape(), (Shape{2, 2}));
    EXPECT_EQ(y.values(), (std::vector<float>{20, 21, 0, 1}));
}

TEST(Embedding, OutOfRangeThrows)
{
    const Tensor table(Shape{3, 2});
    const Tensor ids(Shape{1}, {3});
    EXPECT_THROW(embedding(ids, table), Contract_violation);
}

TEST(Enlarge, PadsKernelCentred)
{
    const Tensor w(Shape{1, 1, 1, 1}, {7});
    const Tensor e = enlarge_kernel(w, 3, 3);
    EXPECT_EQ(e.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_EQ(e.at(4), 7.0F);
    EXPECT_EQ(e.at(0), 0.0F);
}

TEST(Enlarge, EnlargedConvMatchesPaddedConv)
{
    // conv(x, w_1x1) == conv(x, enlarge(w, 3, 3)) with one extra pad.
    Rng rng(41);
    const Tensor x = Tensor::random_uniform({1, 2, 5, 5}, rng);
    const Tensor w = Tensor::random_uniform({3, 2, 1, 1}, rng);
    Conv2d_spec small;
    const Tensor y_small = conv2d(x, w, small);
    Conv2d_spec big;
    big.pad_h = big.pad_w = 1;
    const Tensor y_big = conv2d(x, enlarge_kernel(w, 3, 3), big);
    EXPECT_TRUE(Tensor::all_close(y_small, y_big, 1e-4F));
}

// Parameterised sweep: matmul result matches a straightforward triple loop
// across a family of shapes.
class Matmul_shapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Matmul_shapes, MatchesNaiveTripleLoop)
{
    const auto [m, k, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
    const Tensor a = Tensor::random_uniform({m, k}, rng);
    const Tensor b = Tensor::random_uniform({k, n}, rng);
    const Tensor c = matmul(a, b);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            float acc = 0.0F;
            for (int kk = 0; kk < k; ++kk) acc += a.at(i * k + kk) * b.at(kk * n + j);
            EXPECT_NEAR(c.at(i * n + j), acc, 1e-4F);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Matmul_shapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{5, 1, 7}, std::tuple{8, 8, 8},
                                           std::tuple{3, 16, 2}, std::tuple{13, 7, 5}));

// Parameterised sweep: concat/split round-trips along every axis of a rank-3
// tensor.
class Concat_axis : public ::testing::TestWithParam<int> {};

TEST_P(Concat_axis, SplitOfConcatIsIdentity)
{
    const int axis = GetParam();
    Rng rng(static_cast<std::uint64_t>(axis + 100));
    Shape sa{2, 3, 4};
    Shape sb{2, 3, 4};
    sa[static_cast<std::size_t>(axis)] = 2;
    sb[static_cast<std::size_t>(axis)] = 5;
    const Tensor a = Tensor::random_uniform(sa, rng);
    const Tensor b = Tensor::random_uniform(sb, rng);
    const auto parts = split(concat({a, b}, axis), axis, {2, 5});
    EXPECT_TRUE(Tensor::all_close(parts[0], a, 0.0F));
    EXPECT_TRUE(Tensor::all_close(parts[1], b, 0.0F));
}

INSTANTIATE_TEST_SUITE_P(Axes, Concat_axis, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Fast-path parity: every contiguous kernel path must produce exactly the
// bits of a naive reference loop, including for zeros, -0.0 and inf.
// ---------------------------------------------------------------------------

constexpr float inf = std::numeric_limits<float>::infinity();

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
    Rng rng(seed);
    Tensor t = Tensor::random_uniform(std::move(shape), rng);
    const float specials[] = {0.0F, -0.0F, inf, -inf};
    for (std::int64_t i = 0; i < t.volume(); i += 3) t.at(i) = specials[(i / 3) % 4];
    return t;
}

/// NumPy broadcasting by an explicit multi-index walk.
template <typename F>
Tensor naive_broadcast(const Tensor& a, const Tensor& b, F f)
{
    const std::size_t rank = std::max(a.shape().size(), b.shape().size());
    auto padded = [rank](const Shape& s) {
        Shape p(rank - s.size(), 1);
        p.insert(p.end(), s.begin(), s.end());
        return p;
    };
    const Shape pa = padded(a.shape());
    const Shape pb = padded(b.shape());
    Shape out_shape(rank);
    for (std::size_t d = 0; d < rank; ++d) out_shape[d] = pa[d] == 1 ? pb[d] : pa[d];
    Tensor out(out_shape);
    for (std::int64_t flat = 0; flat < out.volume(); ++flat) {
        std::int64_t rest = flat;
        std::int64_t ia = 0;
        std::int64_t ib = 0;
        std::int64_t stride_a = 1;
        std::int64_t stride_b = 1;
        for (std::size_t d = rank; d-- > 0;) {
            const std::int64_t index = rest % out_shape[d];
            rest /= out_shape[d];
            ia += (pa[d] == 1 ? 0 : index) * stride_a;
            ib += (pb[d] == 1 ? 0 : index) * stride_b;
            stride_a *= pa[d];
            stride_b *= pb[d];
        }
        out.at(flat) = f(a.at(ia), b.at(ib));
    }
    return out;
}

void expect_binary_ops_match_reference(const Shape& sa, const Shape& sb)
{
    SCOPED_TRACE(shape_to_string(sa) + " op " + shape_to_string(sb));
    const Tensor a = special_values(sa, 11);
    const Tensor b = special_values(sb, 12);
    expect_bitwise_equal(add(a, b), naive_broadcast(a, b, [](float x, float y) { return x + y; }));
    expect_bitwise_equal(sub(a, b), naive_broadcast(a, b, [](float x, float y) { return x - y; }));
    expect_bitwise_equal(mul(a, b), naive_broadcast(a, b, [](float x, float y) { return x * y; }));
    expect_bitwise_equal(div(a, b), naive_broadcast(a, b, [](float x, float y) { return x / y; }));
    expect_bitwise_equal(ewise_binary(a, b, [](float x, float y) { return x * y + 1.0F; }),
                         naive_broadcast(a, b, [](float x, float y) { return x * y + 1.0F; }));
}

TEST(FastPathParity, BroadcastKindsMatchNaiveReference)
{
    expect_binary_ops_match_reference({5, 7}, {5, 7}); // same shape
    expect_binary_ops_match_reference({5, 7}, {1, 7}); // row
    expect_binary_ops_match_reference({5, 7}, {7});    // rank-1 row
    expect_binary_ops_match_reference({5, 7}, {5, 1}); // column
    expect_binary_ops_match_reference({7, 7}, {7, 1}); // column of a square operand
    expect_binary_ops_match_reference({5, 7}, {1, 1}); // scalar
    expect_binary_ops_match_reference({5, 7}, {});     // rank-0 scalar
    expect_binary_ops_match_reference({1, 7}, {1, 1});
    expect_binary_ops_match_reference({5, 1}, {1, 1});
}

TEST(FastPathParity, GenericBroadcastShapesMatchNaiveReference)
{
    expect_binary_ops_match_reference({1, 7}, {5, 7});       // left-side broadcast
    expect_binary_ops_match_reference({5, 1}, {1, 7});       // both sides broadcast
    expect_binary_ops_match_reference({3, 5, 7}, {1, 1, 7}); // rank 3
    expect_binary_ops_match_reference({3, 5, 7}, {5, 1});
    expect_binary_ops_match_reference({0, 7}, {1, 7});       // 0 rows
    expect_binary_ops_match_reference({0, 7}, {0, 1});
}

TEST(FastPathParity, UnaryKernelsMatchScalarFunctions)
{
    const Tensor a = special_values({4, 9}, 13);
    const Tensor e = exp_op(a);
    const Tensor r = relu(a);
    const Tensor l = leaky_relu(a, 0.2F);
    const Tensor s = scale(a, -3.0F);
    const Tensor u = ewise_unary(a, [](float x) { return x * x; });
    for (std::int64_t i = 0; i < a.volume(); ++i) {
        const float x = a.at(i);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(e.at(i)), std::bit_cast<std::uint32_t>(std::exp(x)));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(r.at(i)), std::bit_cast<std::uint32_t>(x > 0.0F ? x : 0.0F));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(l.at(i)),
                  std::bit_cast<std::uint32_t>(x > 0.0F ? x : 0.2F * x));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(s.at(i)), std::bit_cast<std::uint32_t>(-3.0F * x));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(u.at(i)), std::bit_cast<std::uint32_t>(x * x));
    }
}

/// out[i][j] = sum over kk ascending of lhs(i,kk) * rhs(kk,j), skipping
/// lhs(i,kk) == 0 — matmul's zero-skip, which turns 0 * inf into nothing
/// rather than NaN.
template <typename Lhs, typename Rhs>
Tensor naive_matmul(std::int64_t m, std::int64_t k, std::int64_t n, Lhs lhs, Rhs rhs)
{
    Tensor out(Shape{m, n});
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0F;
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float l = lhs(i, kk);
                if (l == 0.0F) continue;
                acc += l * rhs(kk, j);
            }
            out.at(i * n + j) = acc;
        }
    }
    return out;
}

TEST(FastPathParity, MatmulsMatchNaiveReferenceWithZeroSkip)
{
    const std::int64_t m = 6;
    const std::int64_t k = 5;
    for (const std::int64_t n : {4, 1}) { // n == 1 takes the matrix-vector paths
        SCOPED_TRACE("n = " + std::to_string(n));
        // a holds zeros, -0.0 and +-inf; b is positive, with inf in each row
        // that meets a zero of a's first row, so only the zero-skip keeps
        // out[0][0] from being 0 * inf = NaN.
        const Tensor a = special_values({m, k}, 21);
        Rng rng(static_cast<std::uint64_t>(20 + n));
        Tensor b = Tensor::random_uniform({k, n}, rng, 0.5F, 1.0F);
        for (std::int64_t kk = 0; kk < k; ++kk)
            if (a.at(kk) == 0.0F) b.at(kk * n) = inf;
        const Tensor expected = naive_matmul(m, k, n, [&](auto i, auto kk) { return a.at(i * k + kk); },
                                             [&](auto kk, auto j) { return b.at(kk * n + j); });
        EXPECT_FALSE(std::isnan(expected.at(0)));

        expect_bitwise_equal(matmul(a, b), expected);
        const Tensor bt = transpose_last2(b); // A·Bᵀ, the tape's dA
        expect_bitwise_equal(matmul(a, transpose_last2(bt)), expected);
        const Tensor at = transpose_last2(a); // Aᵀ·B, the tape's dB
        expect_bitwise_equal(matmul_at_b(at, b), expected);
    }
    EXPECT_THROW(matmul_at_b(Tensor(Shape{3, 2}), Tensor(Shape{4, 2})), Contract_violation);
}

TEST(FastPathParity, TwoDimensionalTransposeMatchesIndexing)
{
    const Tensor a = special_values({3, 7}, 31);
    const Tensor t = transpose(a, {1, 0});
    ASSERT_EQ(t.shape(), (Shape{7, 3}));
    for (std::int64_t r = 0; r < 3; ++r)
        for (std::int64_t c = 0; c < 7; ++c)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(t.at(c * 3 + r)), std::bit_cast<std::uint32_t>(a.at(r * 7 + c)));
    EXPECT_EQ(transpose(Tensor(Shape{0, 4}), {1, 0}).shape(), (Shape{4, 0}));
}

TEST(FastPathParity, ReductionsSumInAscendingOrder)
{
    const Tensor a = special_values({6, 5}, 41);
    Tensor columns(Shape{1, 5}); // (m,n) -> (1,n)
    Tensor rows(Shape{6, 1});    // (m,n) -> (m,1)
    for (std::int64_t j = 0; j < 5; ++j) {
        float acc = 0.0F;
        for (std::int64_t i = 0; i < 6; ++i) acc += a.at(i * 5 + j);
        columns.at(j) = acc;
    }
    for (std::int64_t i = 0; i < 6; ++i) {
        float acc = 0.0F;
        for (std::int64_t j = 0; j < 5; ++j) acc += a.at(i * 5 + j);
        rows.at(i) = acc;
    }
    expect_bitwise_equal(reduce_sum(a, 0, /*keep_dim=*/true), columns);
    expect_bitwise_equal(reduce_sum(a, 1, /*keep_dim=*/true), rows);

    // A middle axis of a rank-3 tensor, and the mean's final division.
    Rng rng(42);
    const Tensor b = Tensor::random_uniform({2, 3, 4}, rng);
    Tensor middle(Shape{2, 4});
    for (std::int64_t o = 0; o < 2; ++o) {
        for (std::int64_t i = 0; i < 4; ++i) {
            float acc = 0.0F;
            for (std::int64_t e = 0; e < 3; ++e) acc += b.at((o * 3 + e) * 4 + i);
            middle.at(o * 4 + i) = acc / 3.0F;
        }
    }
    expect_bitwise_equal(reduce_mean(b, 1, /*keep_dim=*/false), middle);
}

} // namespace
} // namespace xrl
