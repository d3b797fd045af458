#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"
#include "tensor/kernels.h"

namespace xrl {

namespace {

void accumulate(Tensor& into, const Tensor& delta)
{
    XRL_EXPECTS(into.shape() == delta.shape());
    float* dst = into.data();
    const float* src = delta.data();
    for (std::int64_t i = 0; i < into.volume(); ++i) dst[i] += src[i];
}

/// Add `grad` into `into`, first summing it down to into's shape (the
/// inverse of NumPy broadcasting): extra leading axes, then each axis
/// broadcast from extent 1, in ascending order.
void accumulate_reduced(Tensor& into, const Tensor& grad)
{
    const Shape& shape = into.shape();
    Tensor reduced;
    const Tensor* current = &grad;
    while (current->rank() > static_cast<std::int64_t>(shape.size())) {
        reduced = reduce_sum(*current, 0, /*keep_dim=*/false);
        current = &reduced;
    }
    for (std::int64_t axis = 0; axis < current->rank(); ++axis) {
        if (shape[static_cast<std::size_t>(axis)] == 1 && current->dim(axis) != 1) {
            reduced = reduce_sum(*current, axis, /*keep_dim=*/true);
            current = &reduced;
        }
    }
    accumulate(into, *current);
}

} // namespace

Var Tape::push(Tensor value, std::function<void()> backprop, Parameter* parameter)
{
    Node n;
    n.value = std::move(value);
    n.backprop = std::move(backprop);
    n.parameter = parameter;
    nodes_.push_back(std::move(n));
    return Var{static_cast<int>(nodes_.size() - 1)};
}

Tape::Node& Tape::node(Var v)
{
    XRL_EXPECTS(v.valid() && v.index < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(v.index)];
}

const Tape::Node& Tape::node(Var v) const
{
    XRL_EXPECTS(v.valid() && v.index < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<std::size_t>(v.index)];
}

const Tensor& Tape::value(Var v) const
{
    return node(v).value;
}

const Tensor& Tape::grad(Var v) const
{
    XRL_EXPECTS(v.valid() && static_cast<std::size_t>(v.index) < grads_);
    return nodes_[static_cast<std::size_t>(v.index)].grad;
}

Var Tape::constant(Tensor value)
{
    return push(std::move(value));
}

Var Tape::param(Parameter& p)
{
    const Var v = push(p.value);
    const int i = v.index;
    node(v).parameter = &p;
    node(v).backprop = [this, i, &p] {
        accumulate(p.grad, nodes_[static_cast<std::size_t>(i)].grad);
    };
    return v;
}

Var Tape::add(Var a, Var b)
{
    const Var out = push(xrl::add(value(a), value(b)));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        accumulate_reduced(nodes_[static_cast<std::size_t>(ia)].grad, g);
        accumulate_reduced(nodes_[static_cast<std::size_t>(ib)].grad, g);
    };
    return out;
}

Var Tape::sub(Var a, Var b)
{
    const Var out = push(xrl::sub(value(a), value(b)));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        accumulate_reduced(nodes_[static_cast<std::size_t>(ia)].grad, g);
        accumulate_reduced(nodes_[static_cast<std::size_t>(ib)].grad, xrl::scale(g, -1.0F));
    };
    return out;
}

Var Tape::mul(Var a, Var b)
{
    const Var out = push(xrl::mul(value(a), value(b)));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        const Tensor& va = nodes_[static_cast<std::size_t>(ia)].value;
        const Tensor& vb = nodes_[static_cast<std::size_t>(ib)].value;
        accumulate_reduced(nodes_[static_cast<std::size_t>(ia)].grad, xrl::mul(g, vb));
        accumulate_reduced(nodes_[static_cast<std::size_t>(ib)].grad, xrl::mul(g, va));
    };
    return out;
}

Var Tape::scale(Var a, float factor)
{
    const Var out = push(xrl::scale(value(a), factor));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, factor] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += factor * g[i];
    };
    return out;
}

Var Tape::matmul(Var a, Var b)
{
    XRL_EXPECTS(value(a).rank() == 2 && value(b).rank() == 2);
    const Var out = push(xrl::matmul(value(a), value(b)));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        const Tensor& va = nodes_[static_cast<std::size_t>(ia)].value;
        const Tensor& vb = nodes_[static_cast<std::size_t>(ib)].value;
        // dA = g·Bᵀ (B is the small weight side) and dB = Aᵀ·g, each with
        // the accumulation order of matmul over the explicit transpose.
        accumulate(nodes_[static_cast<std::size_t>(ia)].grad, xrl::matmul(g, transpose_last2(vb)));
        accumulate(nodes_[static_cast<std::size_t>(ib)].grad, matmul_at_b(va, g));
    };
    return out;
}

Var Tape::relu(Var a)
{
    const Var out = push(xrl::relu(value(a)));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* va = nodes_[static_cast<std::size_t>(ia)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += va[i] > 0.0F ? g[i] : 0.0F;
    };
    return out;
}

Var Tape::leaky_relu(Var a, float slope)
{
    const Var out = push(xrl::leaky_relu(value(a), slope));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, slope] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* va = nodes_[static_cast<std::size_t>(ia)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i)
            ga.data()[i] += va[i] > 0.0F ? g[i] : slope * g[i];
    };
    return out;
}

Var Tape::tanh(Var a)
{
    const Var out = push(tanh_op(value(a)));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* y = nodes_[static_cast<std::size_t>(io)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += g[i] * (1.0F - y[i] * y[i]);
    };
    return out;
}

Var Tape::exp(Var a)
{
    const Var out = push(exp_op(value(a)));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* y = nodes_[static_cast<std::size_t>(io)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += g[i] * y[i];
    };
    return out;
}

Var Tape::log(Var a)
{
    const Tensor& va = value(a);
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i) {
        XRL_EXPECTS(va.data()[i] > 0.0F);
        out_value.data()[i] = std::log(va.data()[i]);
    }
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* va2 = nodes_[static_cast<std::size_t>(ia)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += g[i] / va2[i];
    };
    return out;
}

Var Tape::minimum(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.shape() == vb.shape());
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i)
        out_value.data()[i] = std::min(va.data()[i], vb.data()[i]);
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* va2 = nodes_[static_cast<std::size_t>(ia)].value.data();
        const float* vb2 = nodes_[static_cast<std::size_t>(ib)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        Tensor& gb = nodes_[static_cast<std::size_t>(ib)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += va2[i] <= vb2[i] ? g[i] : 0.0F;
        for (std::int64_t i = 0; i < gb.volume(); ++i) gb.data()[i] += va2[i] <= vb2[i] ? 0.0F : g[i];
    };
    return out;
}

Var Tape::clamp(Var a, float lo, float hi)
{
    const Tensor& va = value(a);
    Tensor out_value(va.shape());
    for (std::int64_t i = 0; i < va.volume(); ++i)
        out_value.data()[i] = std::clamp(va.data()[i], lo, hi);
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, lo, hi] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* va2 = nodes_[static_cast<std::size_t>(ia)].value.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i)
            ga.data()[i] += (va2[i] >= lo && va2[i] <= hi) ? g[i] : 0.0F;
    };
    return out;
}

Var Tape::concat_cols(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.rank() == 2 && vb.rank() == 2 && va.dim(0) == vb.dim(0));
    const std::int64_t rows = va.dim(0);
    const std::int64_t ca = va.dim(1);
    const std::int64_t cb = vb.dim(1);
    const std::int64_t width = ca + cb;
    Tensor out_value(Shape{rows, width});
    for (std::int64_t r = 0; r < rows; ++r) {
        std::copy(va.data() + r * ca, va.data() + (r + 1) * ca, out_value.data() + r * width);
        std::copy(vb.data() + r * cb, vb.data() + (r + 1) * cb, out_value.data() + r * width + ca);
    }
    // push() may reallocate the node storage: va/vb are dead from here on.
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io, rows, ca, cb, width] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        float* ga = nodes_[static_cast<std::size_t>(ia)].grad.data();
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < ca; ++c) ga[r * ca + c] += g[r * width + c];
        float* gb = nodes_[static_cast<std::size_t>(ib)].grad.data();
        for (std::int64_t r = 0; r < rows; ++r)
            for (std::int64_t c = 0; c < cb; ++c) gb[r * cb + c] += g[r * width + ca + c];
    };
    return out;
}

Var Tape::concat_rows(Var a, Var b)
{
    const Tensor& va = value(a);
    const Tensor& vb = value(b);
    XRL_EXPECTS(va.rank() == 2 && vb.rank() == 2 && va.dim(1) == vb.dim(1));
    const std::int64_t size_a = va.volume();
    Tensor out_value(Shape{va.dim(0) + vb.dim(0), va.dim(1)});
    std::copy(va.data(), va.data() + size_a, out_value.data());
    std::copy(vb.data(), vb.data() + vb.volume(), out_value.data() + size_a);
    // push() may reallocate the node storage: va/vb are dead from here on.
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int ib = b.index;
    const int io = out.index;
    node(out).backprop = [this, ia, ib, io, size_a] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += g[i];
        Tensor& gb = nodes_[static_cast<std::size_t>(ib)].grad;
        for (std::int64_t i = 0; i < gb.volume(); ++i) gb.data()[i] += g[size_a + i];
    };
    return out;
}

Var Tape::gather_rows(Var a, std::vector<std::int64_t> rows)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(va.rank() == 2);
    const std::int64_t width = va.dim(1);
    Tensor out_value(Shape{static_cast<std::int64_t>(rows.size()), width});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        XRL_EXPECTS(rows[r] >= 0 && rows[r] < va.dim(0));
        std::copy(va.data() + rows[r] * width, va.data() + (rows[r] + 1) * width,
                  out_value.data() + static_cast<std::int64_t>(r) * width);
    }
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, rows = std::move(rows), width] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            const float* src = g.data() + static_cast<std::int64_t>(r) * width;
            float* dst = ga.data() + rows[r] * width;
            for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
        }
    };
    return out;
}

Var Tape::segment_sum(Var a, std::vector<std::int64_t> segments, std::int64_t num_segments)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(va.rank() == 2);
    XRL_EXPECTS(static_cast<std::int64_t>(segments.size()) == va.dim(0));
    const std::int64_t width = va.dim(1);
    Tensor out_value(Shape{num_segments, width});
    for (std::size_t r = 0; r < segments.size(); ++r) {
        XRL_EXPECTS(segments[r] >= 0 && segments[r] < num_segments);
        const float* src = va.data() + static_cast<std::int64_t>(r) * width;
        float* dst = out_value.data() + segments[r] * width;
        for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
    }
    const Var out = push(std::move(out_value));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, segments = std::move(segments), width] {
        const Tensor& g = nodes_[static_cast<std::size_t>(io)].grad;
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::size_t r = 0; r < segments.size(); ++r) {
            const float* src = g.data() + segments[r] * width;
            float* dst = ga.data() + static_cast<std::int64_t>(r) * width;
            for (std::int64_t c = 0; c < width; ++c) dst[c] += src[c];
        }
    };
    return out;
}

Var Tape::segment_softmax(Var scores, std::vector<std::int64_t> segments, std::int64_t num_segments)
{
    const Tensor& vs = value(scores);
    XRL_EXPECTS(vs.rank() == 2 && vs.dim(1) == 1);
    XRL_EXPECTS(static_cast<std::int64_t>(segments.size()) == vs.dim(0));
    const float* x = vs.data();

    std::vector<float> seg_max(static_cast<std::size_t>(num_segments),
                               -std::numeric_limits<float>::infinity());
    for (std::size_t r = 0; r < segments.size(); ++r) {
        XRL_EXPECTS(segments[r] >= 0 && segments[r] < num_segments);
        float& m = seg_max[static_cast<std::size_t>(segments[r])];
        m = std::max(m, x[r]);
    }

    Tensor out_value(vs.shape());
    float* y = out_value.data();
    std::vector<float> seg_sum(static_cast<std::size_t>(num_segments), 0.0F);
    for (std::size_t r = 0; r < segments.size(); ++r) {
        const auto s = static_cast<std::size_t>(segments[r]);
        y[r] = std::exp(x[r] - seg_max[s]);
        seg_sum[s] += y[r];
    }
    for (std::size_t r = 0; r < segments.size(); ++r) y[r] /= seg_sum[static_cast<std::size_t>(segments[r])];

    const Var out = push(std::move(out_value));
    const int ia = scores.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, segments = std::move(segments), num_segments] {
        const float* g = nodes_[static_cast<std::size_t>(io)].grad.data();
        const float* y2 = nodes_[static_cast<std::size_t>(io)].value.data();
        // grad_x = y * (g - sum_seg(g*y))
        std::vector<float> seg_dot(static_cast<std::size_t>(num_segments), 0.0F);
        for (std::size_t r = 0; r < segments.size(); ++r)
            seg_dot[static_cast<std::size_t>(segments[r])] += g[r] * y2[r];
        float* ga = nodes_[static_cast<std::size_t>(ia)].grad.data();
        for (std::size_t r = 0; r < segments.size(); ++r)
            ga[r] += y2[r] * (g[r] - seg_dot[static_cast<std::size_t>(segments[r])]);
    };
    return out;
}

Var Tape::sum_all(Var a)
{
    const Tensor& va = value(a);
    float total = 0.0F;
    for (std::int64_t i = 0; i < va.volume(); ++i) total += va.data()[i];
    const Var out = push(Tensor(Shape{1, 1}, {total}));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io] {
        const float g = nodes_[static_cast<std::size_t>(io)].grad.at(0);
        Tensor& ga = nodes_[static_cast<std::size_t>(ia)].grad;
        for (std::int64_t i = 0; i < ga.volume(); ++i) ga.data()[i] += g;
    };
    return out;
}

Var Tape::mean_all(Var a)
{
    const auto n = static_cast<float>(value(a).volume());
    return scale(sum_all(a), 1.0F / n);
}

Var Tape::pick(Var a, std::int64_t flat_index)
{
    const Tensor& va = value(a);
    XRL_EXPECTS(flat_index >= 0 && flat_index < va.volume());
    const Var out = push(Tensor(Shape{1, 1}, {va.at(flat_index)}));
    const int ia = a.index;
    const int io = out.index;
    node(out).backprop = [this, ia, io, flat_index] {
        nodes_[static_cast<std::size_t>(ia)].grad.at(flat_index) +=
            nodes_[static_cast<std::size_t>(io)].grad.at(0);
    };
    return out;
}

void Tape::backward(Var loss)
{
    XRL_EXPECTS(node(loss).value.volume() == 1);
    // Gradient buffers exist only once a backward pass needs them, so a
    // forward-only tape (Agent::act) allocates none.
    for (; grads_ < nodes_.size(); ++grads_) nodes_[grads_].grad = Tensor(nodes_[grads_].value.shape());
    node(loss).grad.at(0) = 1.0F;
    for (int i = loss.index; i >= 0; --i) {
        auto& n = nodes_[static_cast<std::size_t>(i)];
        if (n.backprop) n.backprop();
    }
}

} // namespace xrl
