#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace xrl {

namespace {

// Strides of a row-major shape.
std::vector<std::int64_t> strides_of(const Shape& shape)
{
    std::vector<std::int64_t> strides(shape.size(), 1);
    for (std::int64_t i = static_cast<std::int64_t>(shape.size()) - 2; i >= 0; --i)
        strides[static_cast<std::size_t>(i)] =
            strides[static_cast<std::size_t>(i + 1)] * shape[static_cast<std::size_t>(i + 1)];
    return strides;
}

// Flat index into a tensor broadcast up to `out_shape`, given the
// multi-index `index` into the output.
std::int64_t broadcast_flat_index(const Shape& in_shape, const std::vector<std::int64_t>& in_strides,
                                  const std::vector<std::int64_t>& index, std::size_t out_rank)
{
    const std::size_t offset = out_rank - in_shape.size();
    std::int64_t flat = 0;
    for (std::size_t axis = 0; axis < in_shape.size(); ++axis) {
        const std::int64_t extent = in_shape[axis];
        const std::int64_t i = extent == 1 ? 0 : index[axis + offset];
        flat += i * in_strides[axis];
    }
    return flat;
}

void advance_index(std::vector<std::int64_t>& index, const Shape& shape)
{
    for (std::int64_t axis = static_cast<std::int64_t>(shape.size()) - 1; axis >= 0; --axis) {
        auto& i = index[static_cast<std::size_t>(axis)];
        if (++i < shape[static_cast<std::size_t>(axis)]) return;
        i = 0;
    }
}

// matmul skips a zero lhs entry, so 0 * inf adds nothing instead of NaN.
// Adding +0.0 in its place is the same, bit for bit, for an accumulator
// that starts at +0.0: such a sum can never become -0.0, and x + 0.0 == x
// for every other x. The select compiles without a branch, which matters
// when the lhs is a ReLU output with zeros in no predictable pattern.
inline float zero_skipped_product(float av, float bv)
{
    return av == 0.0F ? 0.0F : av * bv;
}

} // namespace

Shape broadcast_shapes(const Shape& a, const Shape& b)
{
    const std::size_t rank = std::max(a.size(), b.size());
    Shape out(rank, 1);
    for (std::size_t i = 0; i < rank; ++i) {
        const std::int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
        const std::int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
        XRL_EXPECTS(da == db || da == 1 || db == 1);
        out[i] = da == 1 ? db : da; // an extent of 0 broadcasts against 1 to 0
    }
    return out;
}

namespace {

// Elementwise kernels are templated on their functor so the per-element call
// inlines; the std::function overloads below wrap them for the executor.
//
// Same-shape operands and the broadcasts the tape issues — a rank-2 left
// operand with a (1,n) row, (m,1) column or single-element right operand —
// run as contiguous loops. Every other broadcast takes the strided walk.
template <typename F>
Tensor binary_kernel(const Tensor& a, const Tensor& b, const F& f)
{
    const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
    Tensor out(out_shape);
    float* o = out.data();
    const float* pa = a.data();
    const float* pb = b.data();
    if (a.shape() == b.shape()) {
        for (std::int64_t i = 0; i < out.volume(); ++i) o[i] = f(pa[i], pb[i]);
        return out;
    }
    if (a.rank() == 2 && b.rank() <= 2 && out_shape == a.shape()) {
        const std::int64_t m = a.dim(0);
        const std::int64_t n = a.dim(1);
        const std::int64_t bm = b.rank() == 2 ? b.dim(0) : 1;
        const std::int64_t bn = b.rank() >= 1 ? b.dim(b.rank() - 1) : 1;
        if (bm == 1 && bn == 1) {
            const float y = pb[0];
            for (std::int64_t i = 0; i < m * n; ++i) o[i] = f(pa[i], y);
            return out;
        }
        if (bm == 1) { // (1,n) row
            for (std::int64_t i = 0; i < m; ++i)
                for (std::int64_t j = 0; j < n; ++j) o[i * n + j] = f(pa[i * n + j], pb[j]);
            return out;
        }
        if (bn == 1) { // (m,1) column
            for (std::int64_t i = 0; i < m; ++i) {
                const float y = pb[i];
                for (std::int64_t j = 0; j < n; ++j) o[i * n + j] = f(pa[i * n + j], y);
            }
            return out;
        }
    }
    const auto sa = strides_of(a.shape());
    const auto sb = strides_of(b.shape());
    std::vector<std::int64_t> index(out_shape.size(), 0);
    for (std::int64_t flat = 0; flat < out.volume(); ++flat) {
        const std::int64_t ia = broadcast_flat_index(a.shape(), sa, index, out_shape.size());
        const std::int64_t ib = broadcast_flat_index(b.shape(), sb, index, out_shape.size());
        o[flat] = f(pa[ia], pb[ib]);
        advance_index(index, out_shape);
    }
    return out;
}

template <typename F>
Tensor unary_kernel(const Tensor& a, const F& f)
{
    Tensor out(a.shape());
    float* o = out.data();
    const float* pa = a.data();
    for (std::int64_t i = 0; i < a.volume(); ++i) o[i] = f(pa[i]);
    return out;
}

} // namespace

Tensor ewise_binary(const Tensor& a, const Tensor& b, const std::function<float(float, float)>& f)
{
    return binary_kernel(a, b, f);
}

Tensor add(const Tensor& a, const Tensor& b) { return binary_kernel(a, b, [](float x, float y) { return x + y; }); }
Tensor sub(const Tensor& a, const Tensor& b) { return binary_kernel(a, b, [](float x, float y) { return x - y; }); }
Tensor mul(const Tensor& a, const Tensor& b) { return binary_kernel(a, b, [](float x, float y) { return x * y; }); }
Tensor div(const Tensor& a, const Tensor& b) { return binary_kernel(a, b, [](float x, float y) { return x / y; }); }

Tensor ewise_unary(const Tensor& a, const std::function<float(float)>& f)
{
    return unary_kernel(a, f);
}

Tensor relu(const Tensor& a) { return unary_kernel(a, [](float x) { return x > 0.0F ? x : 0.0F; }); }

Tensor leaky_relu(const Tensor& a, float negative_slope)
{
    return unary_kernel(a, [negative_slope](float x) { return x > 0.0F ? x : negative_slope * x; });
}

Tensor gelu(const Tensor& a)
{
    return unary_kernel(a, [](float x) {
        return 0.5F * x * (1.0F + std::erf(x / 1.41421356237F));
    });
}

Tensor sigmoid(const Tensor& a)
{
    return unary_kernel(a, [](float x) { return 1.0F / (1.0F + std::exp(-x)); });
}

Tensor tanh_op(const Tensor& a) { return unary_kernel(a, [](float x) { return std::tanh(x); }); }
Tensor exp_op(const Tensor& a) { return unary_kernel(a, [](float x) { return std::exp(x); }); }
Tensor sqrt_op(const Tensor& a) { return unary_kernel(a, [](float x) { return std::sqrt(x); }); }
Tensor erf_op(const Tensor& a) { return unary_kernel(a, [](float x) { return std::erf(x); }); }

Tensor scale(const Tensor& a, float factor)
{
    return unary_kernel(a, [factor](float x) { return factor * x; });
}

Tensor matmul(const Tensor& a, const Tensor& b)
{
    XRL_EXPECTS(a.rank() >= 2 && b.rank() >= 2);
    if (a.rank() == 2 && b.rank() == 2) {
        const std::int64_t m = a.dim(0);
        const std::int64_t k = a.dim(1);
        XRL_EXPECTS(b.dim(0) == k);
        const std::int64_t n = b.dim(1);
        Tensor out(Shape{m, n});
        const float* pa = a.data();
        if (n == 1) { // matrix-vector: GAT attention scores
            for (std::int64_t i = 0; i < m; ++i) {
                float acc = 0.0F;
                for (std::int64_t kk = 0; kk < k; ++kk)
                    acc += zero_skipped_product(pa[i * k + kk], b.data()[kk]);
                out.data()[i] = acc;
            }
            return out;
        }
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = pa[i * k + kk];
                if (av == 0.0F) continue;
                const float* brow = b.data() + kk * n;
                float* orow = out.data() + i * n;
                for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
            }
        }
        return out;
    }
    // Batched: flatten leading axes of `a` into a batch; `b` is either
    // batched identically or broadcast.
    XRL_EXPECTS(a.rank() == 3);
    const std::int64_t batch = a.dim(0);
    const std::int64_t m = a.dim(1);
    const std::int64_t k = a.dim(2);
    std::int64_t n = 0;
    const bool b_batched = b.rank() == 3;
    if (b_batched) {
        XRL_EXPECTS(b.dim(0) == batch && b.dim(1) == k);
        n = b.dim(2);
    } else {
        XRL_EXPECTS(b.rank() == 2 && b.dim(0) == k);
        n = b.dim(1);
    }
    Tensor out(Shape{batch, m, n});
    for (std::int64_t bi = 0; bi < batch; ++bi) {
        const float* abase = a.data() + bi * m * k;
        const float* bbase = b.data() + (b_batched ? bi * k * n : 0);
        float* obase = out.data() + bi * m * n;
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = abase[i * k + kk];
                if (av == 0.0F) continue;
                const float* brow = bbase + kk * n;
                float* orow = obase + i * n;
                for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
            }
        }
    }
    return out;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b)
{
    XRL_EXPECTS(a.rank() == 2 && b.rank() == 2);
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    XRL_EXPECTS(b.dim(0) == m);
    const std::int64_t n = b.dim(1);
    Tensor out(Shape{k, n});
    const float* pa = a.data();
    if (n == 1) { // gradient of a matrix-vector product's vector
        for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t kk = 0; kk < k; ++kk)
                out.data()[kk] += zero_skipped_product(pa[i * k + kk], b.data()[i]);
        return out;
    }
    for (std::int64_t i = 0; i < m; ++i) {
        const float* brow = b.data() + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = pa[i * k + kk];
            if (av == 0.0F) continue;
            float* orow = out.data() + kk * n;
            for (std::int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
        }
    }
    return out;
}

Tensor transpose(const Tensor& a, const std::vector<std::int64_t>& perm)
{
    XRL_EXPECTS(static_cast<std::int64_t>(perm.size()) == a.rank());
    Shape out_shape(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        out_shape[i] = a.dim(perm[i]);
    Tensor out(out_shape);
    if (perm == std::vector<std::int64_t>{1, 0}) {
        const std::int64_t rows = a.dim(0);
        const std::int64_t cols = a.dim(1);
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < cols; ++c) out.data()[c * rows + r] = a.data()[r * cols + c];
        return out;
    }
    const auto in_strides = strides_of(a.shape());
    std::vector<std::int64_t> index(out_shape.size(), 0);
    for (std::int64_t flat = 0; flat < out.volume(); ++flat) {
        std::int64_t src = 0;
        for (std::size_t i = 0; i < perm.size(); ++i)
            src += index[i] * in_strides[static_cast<std::size_t>(perm[i])];
        out.at(flat) = a.at(src);
        advance_index(index, out_shape);
    }
    return out;
}

Tensor transpose_last2(const Tensor& a)
{
    XRL_EXPECTS(a.rank() >= 2);
    std::vector<std::int64_t> perm(static_cast<std::size_t>(a.rank()));
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::int64_t>(i);
    std::swap(perm[perm.size() - 1], perm[perm.size() - 2]);
    return transpose(a, perm);
}

Tensor concat(const std::vector<Tensor>& parts, std::int64_t axis)
{
    XRL_EXPECTS(!parts.empty());
    const std::int64_t rank = parts.front().rank();
    XRL_EXPECTS(axis >= 0 && axis < rank);
    Shape out_shape = parts.front().shape();
    std::int64_t total = 0;
    for (const Tensor& p : parts) {
        XRL_EXPECTS(p.rank() == rank);
        for (std::int64_t d = 0; d < rank; ++d)
            if (d != axis) XRL_EXPECTS(p.dim(d) == out_shape[static_cast<std::size_t>(d)]);
        total += p.dim(axis);
    }
    out_shape[static_cast<std::size_t>(axis)] = total;

    // Views as (outer, axis_extent, inner).
    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<std::size_t>(d)];
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < rank; ++d) inner *= out_shape[static_cast<std::size_t>(d)];

    Tensor out(out_shape);
    std::int64_t axis_offset = 0;
    for (const Tensor& p : parts) {
        const std::int64_t extent = p.dim(axis);
        for (std::int64_t o = 0; o < outer; ++o) {
            const float* src = p.data() + o * extent * inner;
            float* dst = out.data() + (o * total + axis_offset) * inner;
            std::copy(src, src + extent * inner, dst);
        }
        axis_offset += extent;
    }
    return out;
}

std::vector<Tensor> split(const Tensor& a, std::int64_t axis, const std::vector<std::int64_t>& sizes)
{
    XRL_EXPECTS(axis >= 0 && axis < a.rank());
    std::int64_t total = 0;
    for (const std::int64_t s : sizes) total += s;
    XRL_EXPECTS(total == a.dim(axis));

    std::vector<Tensor> out;
    out.reserve(sizes.size());
    std::int64_t begin = 0;
    for (const std::int64_t s : sizes) {
        out.push_back(slice(a, axis, begin, begin + s));
        begin += s;
    }
    return out;
}

Tensor slice(const Tensor& a, std::int64_t axis, std::int64_t begin, std::int64_t end)
{
    XRL_EXPECTS(axis >= 0 && axis < a.rank());
    XRL_EXPECTS(begin >= 0 && begin <= end && end <= a.dim(axis));
    Shape out_shape = a.shape();
    out_shape[static_cast<std::size_t>(axis)] = end - begin;

    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= a.dim(d);
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < a.rank(); ++d) inner *= a.dim(d);
    const std::int64_t in_extent = a.dim(axis);
    const std::int64_t out_extent = end - begin;

    Tensor out(out_shape);
    for (std::int64_t o = 0; o < outer; ++o) {
        const float* src = a.data() + (o * in_extent + begin) * inner;
        float* dst = out.data() + o * out_extent * inner;
        std::copy(src, src + out_extent * inner, dst);
    }
    return out;
}

Tensor pad(const Tensor& a, const std::vector<std::int64_t>& before, const std::vector<std::int64_t>& after)
{
    XRL_EXPECTS(static_cast<std::int64_t>(before.size()) == a.rank());
    XRL_EXPECTS(static_cast<std::int64_t>(after.size()) == a.rank());
    Shape out_shape = a.shape();
    for (std::size_t i = 0; i < out_shape.size(); ++i) {
        XRL_EXPECTS(before[i] >= 0 && after[i] >= 0);
        out_shape[i] += before[i] + after[i];
    }
    Tensor out(out_shape);
    const auto out_strides = strides_of(out_shape);
    std::vector<std::int64_t> index(a.shape().size(), 0);
    for (std::int64_t flat = 0; flat < a.volume(); ++flat) {
        std::int64_t dst = 0;
        for (std::size_t i = 0; i < index.size(); ++i) dst += (index[i] + before[i]) * out_strides[i];
        out.at(dst) = a.at(flat);
        advance_index(index, a.shape());
    }
    return out;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, const Conv2d_spec& spec)
{
    XRL_EXPECTS(input.rank() == 4 && weight.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t h = input.dim(2);
    const std::int64_t w = input.dim(3);
    const std::int64_t k = weight.dim(0);
    const std::int64_t cg = weight.dim(1);
    const std::int64_t r = weight.dim(2);
    const std::int64_t s = weight.dim(3);
    const std::int64_t groups = spec.groups;
    XRL_EXPECTS(groups >= 1 && c % groups == 0 && k % groups == 0);
    XRL_EXPECTS(cg == c / groups);

    const std::int64_t oh = (h + 2 * spec.pad_h - r) / spec.stride_h + 1;
    const std::int64_t ow = (w + 2 * spec.pad_w - s) / spec.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);

    Tensor out(Shape{n, k, oh, ow});
    const std::int64_t k_per_group = k / groups;
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ki = 0; ki < k; ++ki) {
            const std::int64_t g = ki / k_per_group;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = 0.0F;
                    for (std::int64_t ci = 0; ci < cg; ++ci) {
                        const std::int64_t in_c = g * cg + ci;
                        for (std::int64_t ry = 0; ry < r; ++ry) {
                            const std::int64_t iy = oy * spec.stride_h + ry - spec.pad_h;
                            if (iy < 0 || iy >= h) continue;
                            for (std::int64_t sx = 0; sx < s; ++sx) {
                                const std::int64_t ix = ox * spec.stride_w + sx - spec.pad_w;
                                if (ix < 0 || ix >= w) continue;
                                const float iv = input.at(((ni * c + in_c) * h + iy) * w + ix);
                                const float wv = weight.at(((ki * cg + ci) * r + ry) * s + sx);
                                acc += iv * wv;
                            }
                        }
                    }
                    out.at(((ni * k + ki) * oh + oy) * ow + ox) = acc;
                }
            }
        }
    }
    return out;
}

namespace {

template <typename Reduce>
Tensor pool2d(const Tensor& input, const Pool2d_spec& spec, float init, Reduce reduce, bool average)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t h = input.dim(2);
    const std::int64_t w = input.dim(3);
    const std::int64_t oh = (h + 2 * spec.pad_h - spec.kernel_h) / spec.stride_h + 1;
    const std::int64_t ow = (w + 2 * spec.pad_w - spec.kernel_w) / spec.stride_w + 1;
    XRL_EXPECTS(oh > 0 && ow > 0);

    Tensor out(Shape{n, c, oh, ow});
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            for (std::int64_t oy = 0; oy < oh; ++oy) {
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = init;
                    std::int64_t count = 0;
                    for (std::int64_t ry = 0; ry < spec.kernel_h; ++ry) {
                        const std::int64_t iy = oy * spec.stride_h + ry - spec.pad_h;
                        if (iy < 0 || iy >= h) continue;
                        for (std::int64_t sx = 0; sx < spec.kernel_w; ++sx) {
                            const std::int64_t ix = ox * spec.stride_w + sx - spec.pad_w;
                            if (ix < 0 || ix >= w) continue;
                            acc = reduce(acc, input.at(((ni * c + ci) * h + iy) * w + ix));
                            ++count;
                        }
                    }
                    if (average && count > 0) acc /= static_cast<float>(count);
                    out.at(((ni * c + ci) * oh + oy) * ow + ox) = acc;
                }
            }
        }
    }
    return out;
}

} // namespace

Tensor max_pool2d(const Tensor& input, const Pool2d_spec& spec)
{
    return pool2d(
        input, spec, -std::numeric_limits<float>::infinity(),
        [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor avg_pool2d(const Tensor& input, const Pool2d_spec& spec)
{
    return pool2d(
        input, spec, 0.0F, [](float a, float b) { return a + b; }, /*average=*/true);
}

Tensor global_avg_pool(const Tensor& input)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t n = input.dim(0);
    const std::int64_t c = input.dim(1);
    const std::int64_t spatial = input.dim(2) * input.dim(3);
    Tensor out(Shape{n, c, 1, 1});
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            float acc = 0.0F;
            const float* base = input.data() + (ni * c + ci) * spatial;
            for (std::int64_t i = 0; i < spatial; ++i) acc += base[i];
            out.at(ni * c + ci) = acc / static_cast<float>(spatial);
        }
    }
    return out;
}

Tensor batch_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
                  const Tensor& mean, const Tensor& variance, float epsilon)
{
    XRL_EXPECTS(input.rank() == 4);
    const std::int64_t c = input.dim(1);
    XRL_EXPECTS(gamma.volume() == c && beta.volume() == c && mean.volume() == c && variance.volume() == c);
    Tensor out(input.shape());
    const std::int64_t n = input.dim(0);
    const std::int64_t spatial = input.dim(2) * input.dim(3);
    for (std::int64_t ni = 0; ni < n; ++ni) {
        for (std::int64_t ci = 0; ci < c; ++ci) {
            const float inv = 1.0F / std::sqrt(variance.at(ci) + epsilon);
            const float g = gamma.at(ci) * inv;
            const float b = beta.at(ci) - mean.at(ci) * g;
            const float* src = input.data() + (ni * c + ci) * spatial;
            float* dst = out.data() + (ni * c + ci) * spatial;
            for (std::int64_t i = 0; i < spatial; ++i) dst[i] = src[i] * g + b;
        }
    }
    return out;
}

Tensor layer_norm(const Tensor& input, const Tensor& gamma, const Tensor& beta, float epsilon)
{
    XRL_EXPECTS(input.rank() >= 1);
    const std::int64_t width = input.dim(input.rank() - 1);
    XRL_EXPECTS(gamma.volume() == width && beta.volume() == width);
    const std::int64_t rows = input.volume() / width;
    Tensor out(input.shape());
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* src = input.data() + row * width;
        float* dst = out.data() + row * width;
        float mean = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) mean += src[i];
        mean /= static_cast<float>(width);
        float var = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) var += (src[i] - mean) * (src[i] - mean);
        var /= static_cast<float>(width);
        const float inv = 1.0F / std::sqrt(var + epsilon);
        for (std::int64_t i = 0; i < width; ++i)
            dst[i] = (src[i] - mean) * inv * gamma.at(i) + beta.at(i);
    }
    return out;
}

Tensor softmax(const Tensor& input)
{
    XRL_EXPECTS(input.rank() >= 1);
    const std::int64_t width = input.dim(input.rank() - 1);
    const std::int64_t rows = input.volume() / width;
    Tensor out(input.shape());
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* src = input.data() + row * width;
        float* dst = out.data() + row * width;
        float max_v = -std::numeric_limits<float>::infinity();
        for (std::int64_t i = 0; i < width; ++i) max_v = std::max(max_v, src[i]);
        float total = 0.0F;
        for (std::int64_t i = 0; i < width; ++i) {
            dst[i] = std::exp(src[i] - max_v);
            total += dst[i];
        }
        for (std::int64_t i = 0; i < width; ++i) dst[i] /= total;
    }
    return out;
}

namespace {

Tensor reduce_axis(const Tensor& input, std::int64_t axis, bool keep_dim, bool mean)
{
    XRL_EXPECTS(axis >= 0 && axis < input.rank());
    Shape out_shape;
    for (std::int64_t d = 0; d < input.rank(); ++d) {
        if (d == axis) {
            if (keep_dim) out_shape.push_back(1);
        } else {
            out_shape.push_back(input.dim(d));
        }
    }
    std::int64_t outer = 1;
    for (std::int64_t d = 0; d < axis; ++d) outer *= input.dim(d);
    std::int64_t inner = 1;
    for (std::int64_t d = axis + 1; d < input.rank(); ++d) inner *= input.dim(d);
    const std::int64_t extent = input.dim(axis);

    // Each output element sums its extent in ascending order from 0; the
    // loops walk the input contiguously, a whole inner row at a time.
    Tensor out(out_shape);
    for (std::int64_t o = 0; o < outer; ++o) {
        float* acc = out.data() + o * inner;
        for (std::int64_t e = 0; e < extent; ++e) {
            const float* row = input.data() + (o * extent + e) * inner;
            for (std::int64_t i = 0; i < inner; ++i) acc[i] += row[i];
        }
        if (mean)
            for (std::int64_t i = 0; i < inner; ++i) acc[i] /= static_cast<float>(extent);
    }
    return out;
}

} // namespace

Tensor reduce_sum(const Tensor& input, std::int64_t axis, bool keep_dim)
{
    return reduce_axis(input, axis, keep_dim, /*mean=*/false);
}

Tensor reduce_mean(const Tensor& input, std::int64_t axis, bool keep_dim)
{
    return reduce_axis(input, axis, keep_dim, /*mean=*/true);
}

Tensor embedding(const Tensor& ids, const Tensor& table)
{
    XRL_EXPECTS(table.rank() == 2);
    const std::int64_t rows = table.dim(0);
    const std::int64_t width = table.dim(1);
    Shape out_shape = ids.shape();
    out_shape.push_back(width);
    Tensor out(out_shape);
    for (std::int64_t i = 0; i < ids.volume(); ++i) {
        const auto row = static_cast<std::int64_t>(ids.at(i));
        XRL_EXPECTS(row >= 0 && row < rows);
        const float* src = table.data() + row * width;
        std::copy(src, src + width, out.data() + i * width);
    }
    return out;
}

Tensor enlarge_kernel(const Tensor& weight, std::int64_t target_r, std::int64_t target_s)
{
    XRL_EXPECTS(weight.rank() == 4);
    const std::int64_t r = weight.dim(2);
    const std::int64_t s = weight.dim(3);
    XRL_EXPECTS(target_r >= r && target_s >= s);
    XRL_EXPECTS((target_r - r) % 2 == 0 && (target_s - s) % 2 == 0);
    const std::int64_t pr = (target_r - r) / 2;
    const std::int64_t ps = (target_s - s) / 2;
    return pad(weight, {0, 0, pr, ps}, {0, 0, pr, ps});
}

} // namespace xrl
